module P = Protocol
module Faults = Dhdl_util.Faults
module Obs = Dhdl_obs.Obs

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* the partial line read so far *)
  mutable closed : bool;  (* the peer hung up, or a write to it failed *)
}

(* The loop's connections. [live] holds those still polled, by fd. A
   connection whose peer hung up leaves [live] but its fd stays open, in
   [hung_up], until the drain: descriptor numbers only grow while the
   server runs (closing them is ROADMAP item 1). *)
type conns = {
  live : (Unix.file_descr, conn) Hashtbl.t;
  mutable hung_up : Unix.file_descr list;
}

let hang_up conns conn =
  if not conn.closed then begin
    conn.closed <- true;
    Hashtbl.remove conns.live conn.fd;
    conns.hung_up <- conn.fd :: conns.hung_up
  end

(* The socket fault sites model transient I/O errors: each probe that
   fires burns one bounded retry (visible as a counter) before the real
   syscall runs — injected faults cost latency, never replies. *)
let rec retrying ?(attempts = 8) site f =
  if attempts > 1 && Faults.fires site then begin
    Obs.count (site ^ ".retry");
    retrying ~attempts:(attempts - 1) site f
  end
  else f ()

let send conns conn line =
  if not conn.closed then
    let data = line ^ "\n" in
    let len = String.length data in
    try
      retrying "serve.sock_write" (fun () ->
          let sent = ref 0 in
          while !sent < len do
            sent := !sent + Unix.write_substring conn.fd data !sent (len - !sent)
          done)
    with Unix.Unix_error _ ->
      (* Peer is gone (EPIPE etc.): the reply is undeliverable. *)
      hang_up conns conn

(* The codec's two halves are spans of their own: [serve.parse] when the
   loop reads a line, and [serve.render] inside the request's span when
   [Supervisor.run_next] delivers its reply. *)
let reply conns conn r = send conns conn (Obs.span "serve.render" (fun () -> P.render_reply r))

let handle_line sup conns conn line =
  match Obs.span "serve.parse" (fun () -> P.parse_request line) with
  | Error msg ->
    (* Unparseable request: we cannot know its id, but the client still
       gets a typed reply on its connection rather than silence. *)
    reply conns conn (P.error ~id:"?" P.Bad_request msg)
  | Ok req -> Supervisor.submit sup req ~reply_to:(reply conns conn)

(* Only the bytes just read are scanned for newlines; the partial line
   before them stays in [rbuf] and is copied out once, when its newline
   arrives, so a long line costs time linear in its length. [chunk] is
   the loop's one read buffer: every byte of it is copied out before the
   next read. *)
let on_readable sup conns ~chunk conn =
  match retrying "serve.sock_read" (fun () -> Unix.read conn.fd chunk 0 (Bytes.length chunk)) with
  | 0 -> hang_up conns conn
  | n ->
    let rec dispatch start j =
      if j = n then Buffer.add_subbytes conn.rbuf chunk start (n - start)
      else if Bytes.get chunk j = '\n' then begin
        Buffer.add_subbytes conn.rbuf chunk start (j - start);
        let line = Buffer.contents conn.rbuf in
        Buffer.clear conn.rbuf;
        if String.trim line <> "" then handle_line sup conns conn line;
        dispatch (j + 1) (j + 1)
      end
      else dispatch start (j + 1)
    in
    dispatch 0 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> hang_up conns conn

let run ?(install_signals = true) ~socket_path sup_cfg =
  let sup = Supervisor.create sup_cfg in
  (* Writes to a vanished peer must surface as EPIPE, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop_sig = Atomic.make false in
  if install_signals then begin
    let drain_on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop_sig true) in
    Sys.set_signal Sys.sigterm drain_on_signal;
    Sys.set_signal Sys.sigint drain_on_signal
  end;
  (* A leftover socket file is the normal crash-only residue. *)
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 16;
  Printf.eprintf "[serve] listening on %s\n%!" socket_path;
  let conns = { live = Hashtbl.create 64; hung_up = [] } in
  let chunk = Bytes.create 4096 in
  let draining () = Atomic.get stop_sig || Supervisor.draining sup in
  (* One turn: poll without waiting while requests are queued, read what
     is readable (each complete line is admitted or shed), then run one
     queued request. A line that arrives during a handler is read once
     that handler returns. *)
  let rec loop () =
    if not (draining ()) then begin
      let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns.live [ listen_fd ] in
      let timeout = if Supervisor.queue_depth sup > 0 then 0.0 else 0.2 in
      (match Unix.select fds [] [] timeout with
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listen_fd then begin
              let cfd, _ = Unix.accept listen_fd in
              Obs.count "serve.connections";
              Hashtbl.replace conns.live cfd { fd = cfd; rbuf = Buffer.create 256; closed = false }
            end
            else Option.iter (on_readable sup conns ~chunk) (Hashtbl.find_opt conns.live fd))
          readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      ignore (Supervisor.run_next sup);
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Sys.remove socket_path with Sys_error _ -> ());
      (* Finish queued work and checkpoint sweeps before hanging up:
         in-flight replies still have live connections here. *)
      Supervisor.drain sup;
      let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
      Hashtbl.iter (fun fd _ -> close fd) conns.live;
      List.iter close conns.hung_up;
      Printf.eprintf "[serve] drained, bye\n%!")
    loop
