(* Seeded inputs. The program under test receives only what these
   functions generate, and the same seed always generates the same inputs. *)

module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Space = Dhdl_dse.Space
module Rng = Dhdl_util.Rng

let space (app : App.t) = app.App.space app.App.paper_sizes
let generate (app : App.t) p = app.App.generate ~sizes:app.App.paper_sizes ~params:p

(* The points a sweep of [app] with sampling seed [seed] visits — exactly
   the list [Explore.run] draws. *)
let sweep_points ~seed ~n app = Space.sample (space app) ~seed ~max_points:n

(* ---- serve_mix request script ------------------------------------- *)

type cls = Estimate_new | Estimate_repeat | Batch | Lint | Analyze

type request = {
  index : int;
  cls : cls;
  specs : (string * Space.point) list;  (** One spec, or [batch_size] for [Batch]. *)
}

let batch_size = 64

(* One block of the stratified mix: 55% new estimates, 15% repeats, and
   10% each of batches, lints and analyses. Every share is far from both
   1% and 50%, so p50 falls inside the estimate classes and p99 inside the
   analysis classes rather than on a boundary between classes. Blocks are
   shuffled internally, and apps rotate per class, so every seed sends
   nearly the same mix of classes and apps. *)
let block =
  List.concat
    [
      List.init 11 (fun _ -> Estimate_new);
      List.init 3 (fun _ -> Estimate_repeat);
      List.init 2 (fun _ -> Batch);
      List.init 2 (fun _ -> Lint);
      List.init 2 (fun _ -> Analyze);
    ]

(* Points per app that repeats, batches, lints and analyses draw from. *)
let pool_size = 400

let script ~seed ~n =
  let rng = Rng.create (seed * 7919 + 17) in
  let apps = Array.of_list Registry.all in
  let napps = Array.length apps in
  (* Each app's fresh points, in seeded random order: as many as the whole
     script has new estimates, or all of the app's legal points if it has
     fewer. New estimates use them up in order, so none repeats a point,
     whatever the script's length. *)
  let news_per_block = List.length (List.filter (( = ) Estimate_new) block) in
  let news = (n + List.length block - 1) / List.length block * news_per_block in
  let fresh =
    Array.mapi
      (fun i app ->
        let a = Array.of_list (sweep_points ~seed:(seed + (1009 * i)) ~n:news app) in
        Rng.shuffle rng a;
        a)
      apps
  in
  let pools = Array.map (fun a -> Array.sub a 0 (min pool_size (Array.length a))) fresh in
  let next_new = Array.make napps 0 in
  let turn = Hashtbl.create 8 in
  let app_for cls =
    let k = Option.value ~default:0 (Hashtbl.find_opt turn cls) in
    Hashtbl.replace turn cls (k + 1);
    k mod napps
  in
  (* An app whose fresh points are used up passes its turn to the next. *)
  let rec with_fresh a tries =
    if tries = napps then invalid_arg "Inputs.script: more new estimates than legal points"
    else if next_new.(a) < Array.length fresh.(a) then a
    else with_fresh ((a + 1) mod napps) (tries + 1)
  in
  let random_spec a =
    let pool = pools.(a) in
    (apps.(a).App.name, pool.(Rng.int rng (Array.length pool)))
  in
  let sent_new = ref [||] in
  let sent_new_n = ref 0 in
  let remember spec =
    if !sent_new_n = Array.length !sent_new then
      sent_new := Array.append !sent_new (Array.make (max 64 !sent_new_n) spec);
    !sent_new.(!sent_new_n) <- spec;
    incr sent_new_n
  in
  let make index cls =
    let specs =
      match cls with
      | Estimate_new ->
        let a = with_fresh (app_for cls) 0 in
        let spec = (apps.(a).App.name, fresh.(a).(next_new.(a))) in
        next_new.(a) <- next_new.(a) + 1;
        remember spec;
        [ spec ]
      | Estimate_repeat ->
        if !sent_new_n = 0 then [ random_spec (app_for cls) ]
        else [ !sent_new.(Rng.int rng !sent_new_n) ]
      | Batch ->
        let a = app_for cls in
        List.init batch_size (fun _ -> random_spec a)
      | Lint | Analyze -> [ random_spec (app_for cls) ]
    in
    { index; cls; specs }
  in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let b = Array.of_list block in
    Rng.shuffle rng b;
    Array.iter
      (fun cls ->
        if !i < n then begin
          out := make !i cls :: !out;
          incr i
        end)
      b
  done;
  List.rev !out
