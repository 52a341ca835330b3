(* Host-speed reference for the timed units.

   The shared VMs this benchmark runs on change speed in phases of seconds
   to minutes. Within one process, back-to-back estimator builds took
   0.69 s in one phase and 1.31 s in another, with CPU time equal to wall
   time, so this is not steal time. A median within one run cannot remove
   a phase that spans the run, and two sets of runs taken minutes apart
   differed by more than 25%.

   So every timed unit is flanked by probes: a fixed piece of the
   benchmark's own code, run between units, that does the two kinds of
   work the program's time is made of besides plain arithmetic: system
   calls (64-byte round trips through a pipe) and memory traffic (passes
   over a 16 MB buffer). A unit's wall time is scaled by [reference_s] over
   the probes' time around it (see [factor]): what the unit would have
   taken at the reference VM's quiet speed. The probe runs no program
   code, so a change to the program moves scaled times as it moves wall
   times. It allocates only a few words on the OCaml heap, so its time
   does not depend on the program's heap; it holds no file descriptor
   between probes, so a forked server inherits none.

   Probes of other kinds were tried on the same runs (perfbench/README.md,
   "Host-speed scaling"). Across runs in which serve_mix slowed by up to
   1.5x, pointer chasing through a 10 MB map slowed by up to 1.8x and
   plain arithmetic by 1.1x; pipe round trips and buffer passes, which
   slowed by about 1.5x, tracked all three workloads best. *)

let buffer : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * 1024 * 1024) in
  Bigarray.Array1.fill b 1;
  b

let passes = 8
let round_trips = 20_000
let message = Bytes.make 64 'x'

(* The probe's median time on the reference VM (2-vCPU x86-64) in a quiet
   phase. It only fixes the scale of scaled times. *)
let reference_s = 0.035

(* Seconds one probe takes now. *)
let probe () =
  let t0 = Unix.gettimeofday () in
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect ~finally:(fun () -> Unix.close r; Unix.close w) (fun () ->
      for _ = 1 to round_trips do
        if Unix.write w message 0 64 <> 64 || Unix.read r message 0 64 <> 64 then
          failwith "Speed.probe: short pipe transfer"
      done);
  let sum = ref 0 in
  for _ = 1 to passes do
    for i = 0 to Bigarray.Array1.dim buffer - 1 do
      sum := !sum + Bigarray.Array1.unsafe_get buffer i
    done
  done;
  let dt = Unix.gettimeofday () -. t0 in
  if !sum <> passes * Bigarray.Array1.dim buffer then failwith "Speed.probe: buffer changed";
  dt

(* Every probe's time, in the order taken. *)
type t = { mutable times : float array; mutable n : int }

let record sp =
  if sp.n = Array.length sp.times then sp.times <- Array.append sp.times (Array.make (max 16 sp.n) 0.0);
  sp.times.(sp.n) <- probe ();
  sp.n <- sp.n + 1

let create () =
  let sp = { times = [||]; n = 0 } in
  record sp;
  sp

let times sp = Array.to_list (Array.sub sp.times 0 sp.n)

(* A timed unit: its wall time, and the index of the probe taken right
   after it. The probe before it is the one just below. *)
type stamp = { wall : float; after : int }

(* Close a unit of [wall] seconds that ended just now. *)
let stamp sp wall =
  record sp;
  { wall; after = sp.n - 1 }

(* Run [f] as one timed unit. *)
let time sp f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let wall = Unix.gettimeofday () -. t0 in
  (v, stamp sp wall)

(* Probes on each side of a unit's own two that its speed is read from. *)
let window = 2

(* The factor that scales [st]'s wall time to the reference speed:
   [reference_s] over the median of the probes around it, its own two and
   up to [window] more on each side. A single probe lasts tens of
   milliseconds and can land in a spike of contention that a unit of a
   second hardly feels; the median of six cannot be moved by one. Read it
   once the probes after the unit have been taken. *)
let factor sp st =
  let lo = max 0 (st.after - 1 - window) and hi = min (sp.n - 1) (st.after + window) in
  reference_s /. Pstats.median (Array.to_list (Array.sub sp.times lo (hi - lo + 1)))

let scaled sp st = st.wall *. factor sp st
