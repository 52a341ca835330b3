module P = Protocol
module Faults = Dhdl_util.Faults
module Obs = Dhdl_obs.Obs

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* partial line; reads happen only on the event loop *)
  wmutex : Mutex.t;  (* serializes writers: event loop + worker domain *)
  mutable closed : bool;
}

(* The socket fault sites model transient I/O errors: each probe that
   fires burns one bounded retry (visible as a counter) before the real
   syscall runs — injected faults cost latency, never replies. *)
let rec retrying ?(attempts = 8) site f =
  if attempts > 1 && Faults.fires site then begin
    Obs.count (site ^ ".retry");
    retrying ~attempts:(attempts - 1) site f
  end
  else f ()

let send conn line =
  Mutex.lock conn.wmutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wmutex)
    (fun () ->
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
          (* Peer is gone (EPIPE etc.); the reply is undeliverable, the
             worker must not care. The event loop reaps the fd. *)
          conn.closed <- true)

(* The codec's two halves are spans of their own: [serve.parse] on the
   event loop, and [serve.render] inside the request's span when the
   worker replies. *)
let reply conn r = send conn (Obs.span "serve.render" (fun () -> P.render_reply r))

let handle_line sup conn line =
  match Obs.span "serve.parse" (fun () -> P.parse_request line) with
  | Error msg ->
    (* Unparseable request: we cannot know its id, but the client still
       gets a typed reply on its connection rather than silence. *)
    reply conn (P.error ~id:"?" P.Bad_request msg)
  | Ok req -> Supervisor.submit sup req ~reply_to:(reply conn)

(* Only the bytes just read are scanned for newlines; the partial line
   before them stays in [rbuf] and is copied out once, when its newline
   arrives, so a long line costs time linear in its length. *)
let on_readable sup conn =
  let chunk = Bytes.create 4096 in
  match retrying "serve.sock_read" (fun () -> Unix.read conn.fd chunk 0 (Bytes.length chunk)) with
  | 0 -> conn.closed <- true
  | n ->
    let rec dispatch start j =
      if j = n then Buffer.add_subbytes conn.rbuf chunk start (n - start)
      else if Bytes.get chunk j = '\n' then begin
        Buffer.add_subbytes conn.rbuf chunk start (j - start);
        let line = Buffer.contents conn.rbuf in
        Buffer.clear conn.rbuf;
        if String.trim line <> "" then handle_line sup conn line;
        dispatch (j + 1) (j + 1)
      end
      else dispatch start (j + 1)
    in
    dispatch 0 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> conn.closed <- true

let run ?(install_signals = true) ~socket_path sup_cfg =
  let sup = Supervisor.create sup_cfg in
  Supervisor.start sup;
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
  (* All connections ever accepted; fds stay open (merely flagged closed)
     until after the drain, so a worker-held reply callback can never
     write into a recycled descriptor. *)
  let conns = ref [] in
  let draining () = Atomic.get stop_sig || Supervisor.draining sup in
  let rec loop () =
    if not (draining ()) then begin
      let live = List.filter (fun c -> not c.closed) !conns in
      let fds = listen_fd :: List.map (fun c -> c.fd) live in
      (match Unix.select fds [] [] 0.2 with
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listen_fd then begin
              let cfd, _ = Unix.accept listen_fd in
              Obs.count "serve.connections";
              conns :=
                { fd = cfd; rbuf = Buffer.create 256; wmutex = Mutex.create (); closed = false }
                :: !conns
            end
            else
              match List.find_opt (fun c -> c.fd = fd) live with
              | Some conn -> on_readable sup conn
              | None -> ())
          readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
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
      List.iter
        (fun c ->
          Mutex.lock c.wmutex;
          c.closed <- true;
          Mutex.unlock c.wmutex;
          try Unix.close c.fd with Unix.Unix_error _ -> ())
        !conns;
      Printf.eprintf "[serve] drained, bye\n%!")
    loop
