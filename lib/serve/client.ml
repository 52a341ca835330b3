module P = Protocol
module Rng = Dhdl_util.Rng

type t = {
  socket_path : string;
  timeout_s : float;
  max_attempts : int;
  backoff_ms : int;
  rng : Rng.t;  (* jitter stream; deterministic per client *)
}

let default_max_attempts = 5
let default_backoff_ms = 25

let create ?(timeout_s = 10.0) ?(max_attempts = default_max_attempts)
    ?(backoff_ms = default_backoff_ms) ?(seed = 42) ~socket_path () =
  (* A server that hangs up before reading must fail the write with
     EPIPE, not kill the calling process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  { socket_path; timeout_s; max_attempts; backoff_ms; rng = Rng.create seed }

(* One connection, one request line, one reply line (or a timeout). *)
let try_once t req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX t.socket_path) with
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "connect %s: %s" t.socket_path (Unix.error_message e))
      | () -> (
        let line = P.render_request req ^ "\n" in
        match
          let sent = ref 0 in
          while !sent < String.length line do
            sent := !sent + Unix.write_substring fd line !sent (String.length line - !sent)
          done
        with
        | exception Unix.Unix_error (e, _, _) -> Error ("send: " ^ Unix.error_message e)
        | () ->
          let deadline = Unix.gettimeofday () +. t.timeout_s in
          let buf = Buffer.create 256 in
          let chunk = Bytes.create 4096 in
          (* Only the bytes just read are scanned for the newline, and the
             reply line is copied out of [buf] once. *)
          let rec read_reply () =
            let left = deadline -. Unix.gettimeofday () in
            if left <= 0.0 then Error "timeout waiting for reply"
            else
              match Unix.select [ fd ] [] [] left with
              | [], _, _ -> Error "timeout waiting for reply"
              | _ -> (
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | 0 -> Error "connection closed before reply"
                | n -> (
                  let scanned = Buffer.length buf in
                  Buffer.add_subbytes buf chunk 0 n;
                  let rec newline i =
                    if i = n then None else if Bytes.get chunk i = '\n' then Some i else newline (i + 1)
                  in
                  match newline 0 with
                  | Some i -> (
                    match P.parse_reply (Buffer.sub buf 0 (scanned + i)) with
                    | Ok reply -> Ok reply
                    | Error msg -> Error ("bad reply: " ^ msg))
                  | None -> read_reply ())
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_reply ()
                | exception Unix.Unix_error (e, _, _) -> Error ("recv: " ^ Unix.error_message e))
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_reply ()
          in
          read_reply ()))

let sleep_ms ms = if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0)

(* Exponential backoff with multiplicative jitter in [0.5, 1.5), seeded —
   retries decorrelate across clients but replay identically per seed. *)
let backoff_delay t ~attempt ~hint =
  let base =
    match hint with
    | Some ms -> ms
    | None -> t.backoff_ms * (1 lsl min attempt 10)
  in
  int_of_float (float_of_int base *. Rng.float_in t.rng 0.5 1.5)

(* Attempt [a] of [max_attempts - 1] backs off at most 1.5 times its base
   of [backoff_ms * 2^a]: 50, 100, 200 and 400 ms at the defaults. *)
let retry_window_s =
  let rec bases a = if a >= default_max_attempts then 0 else (default_backoff_ms lsl a) + bases (a + 1) in
  1.5 *. float_of_int (bases 1) /. 1000.0

let call t req =
  let rec go attempt last_err =
    if attempt > t.max_attempts then Error last_err
    else
      match try_once t req with
      | Ok reply when P.is_retryable reply && attempt < t.max_attempts ->
        let hint =
          match reply.P.r_body with
          | Error e -> e.P.err_retry_after_ms
          | Ok _ -> None
        in
        sleep_ms (backoff_delay t ~attempt ~hint);
        go (attempt + 1) "retries exhausted on overloaded/draining replies"
      | Ok reply -> Ok reply
      | Error msg ->
        if attempt < t.max_attempts then begin
          sleep_ms (backoff_delay t ~attempt ~hint:None);
          go (attempt + 1) msg
        end
        else Error msg
  in
  go 1 "no attempt made"

let wait_ready ?(timeout_s = 10.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let quick = { t with timeout_s = 0.5; max_attempts = 1 } in
  let rec go n =
    if Unix.gettimeofday () > deadline then false
    else
      match try_once quick (P.request ~id:(Printf.sprintf "ready-%d" n) P.Ping) with
      | Ok { P.r_body = Ok _; _ } -> true
      | _ ->
        sleep_ms 50;
        go (n + 1)
  in
  go 0
