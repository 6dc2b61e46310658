module Json = Pdw_obs.Json
module Clock = Pdw_obs.Clock

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr;  (* self-pipe: [initiate_stop] wakes accept *)
  stop_w : Unix.file_descr;
  started_ms : float;  (* [Clock.now_ms] at bind *)
  mutable conns : Unix.file_descr list;
  mutable stopping : bool;
  mutable stopped : bool;
  lifecycle : Mutex.t;
  lifecycle_cond : Condition.t;
}

let locked t f =
  Mutex.lock t.lifecycle;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lifecycle) f

let bind socket_path =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     (try Unix.bind listen_fd (Unix.ADDR_UNIX socket_path)
      with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
        (* A stale socket file from a crashed daemon: if nobody answers
           on it, replace it; if a live daemon does, fail loudly. *)
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let live =
          match Unix.connect probe (Unix.ADDR_UNIX socket_path) with
          | () -> true
          | exception Unix.Unix_error (_, _, _) -> false
        in
        (try Unix.close probe with Unix.Unix_error _ -> ());
        if live then
          raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", socket_path));
        Sys.remove socket_path;
        Unix.bind listen_fd (Unix.ADDR_UNIX socket_path));
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let stop_r, stop_w = Unix.pipe () in
  {
    socket_path;
    listen_fd;
    stop_r;
    stop_w;
    started_ms = Clock.now_ms ();
    conns = [];
    stopping = false;
    stopped = false;
    lifecycle = Mutex.create ();
    lifecycle_cond = Condition.create ();
  }

let uptime_s t = Clock.elapsed_ms ~since:t.started_ms /. 1000.0

let stopping t = locked t (fun () -> t.stopping)

(* Wake the accept loop via the self-pipe (closing a listening socket
   does not reliably interrupt a blocked accept).  The write happens
   under the lock teardown closes the pipe under, so it can never land
   on a closed — or reused — descriptor. *)
let initiate_stop t =
  locked t (fun () ->
      if not t.stopping then begin
        t.stopping <- true;
        try ignore (Unix.write_substring t.stop_w "x" 0 1) with _ -> ()
      end)

let wait t =
  locked t (fun () ->
      while not t.stopped do
        Condition.wait t.lifecycle_cond t.lifecycle
      done)

let stop t =
  initiate_stop t;
  wait t

(* Flush the reply batch before it grows past this — a client that
   streams requests without ever reading could otherwise balloon the
   buffer. *)
let max_unflushed = 256 * 1024

let local reply () = Protocol.reply_to_string reply

(* One frame's answer: [None] for [Shutdown], which the connection loop
   sequences itself (its [Bye] must be on the wire before teardown
   closes the socket). *)
let decode ~dispatch raw =
  match Json.parse raw with
  | Error m -> Some (local (Protocol.Error (Printf.sprintf "bad JSON: %s" m)))
  | Ok j -> (
    match Protocol.request_of_json j with
    | Error m -> Some (local (Protocol.Error m))
    | Ok Protocol.Shutdown -> None
    | Ok req -> Some (dispatch raw req))

(* One reader thread per connection.  [collect] takes every frame the
   last [read] syscall delivered — never blocking after the first — and
   says what follows the batch: more input, end of stream, a hang-up
   after a framing error, or a shutdown. *)
let conn_loop t ~dispatch ~on_shutdown fd =
  let rd = Wire.Buffered.create fd in
  let wr = Wire.Batch.create fd in
  let rec collect acc =
    match Wire.Buffered.read_frame rd with
    | None -> (acc, `Eof)
    | exception Wire.Protocol_error m ->
      (* Framing is unrecoverable mid-stream: answer, then hang up. *)
      (local (Protocol.Error m) :: acc, `Eof)
    | Some raw -> (
      match decode ~dispatch raw with
      | None -> (local Protocol.Bye :: acc, `Shutdown)
      | Some resolve ->
        if Wire.Buffered.has_frame rd then collect (resolve :: acc)
        else (resolve :: acc, `More))
  in
  let rec loop () =
    let batch, next = collect [] in
    List.iter
      (fun resolve ->
        Wire.Batch.add_frame wr (resolve ());
        if Wire.Batch.pending wr >= max_unflushed then Wire.Batch.flush wr)
      (List.rev batch);
    Wire.Batch.flush wr;
    match next with
    | `More -> loop ()
    | `Eof -> ()
    | `Shutdown ->
      on_shutdown ();
      initiate_stop t
  in
  (try loop ()
   with Wire.Protocol_error _ | Unix.Unix_error _ | Sys_error _ -> ());
  locked t (fun () -> t.conns <- List.filter (fun fd' -> fd' <> fd) t.conns);
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t ~dispatch ~on_shutdown ~on_stop =
  let rec loop () =
    if not (stopping t) then
      match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.0) with
      | readable, _, _ ->
        if not (List.mem t.stop_r readable) then begin
          (match Unix.accept t.listen_fd with
          | fd, _ ->
            locked t (fun () -> t.conns <- fd :: t.conns);
            ignore (Thread.create (conn_loop t ~dispatch ~on_shutdown) fd)
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
            ->
            ());
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  (* Tear down: listener first (no new connections), then live
     connections (shutdown wakes their blocked reader threads), then
     whatever the owner holds. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove t.socket_path with Sys_error _ -> ());
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    (locked t (fun () -> t.conns));
  on_stop ();
  locked t (fun () ->
      (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
      (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
      t.stopped <- true;
      Condition.broadcast t.lifecycle_cond)

let serve t ~dispatch ~on_shutdown ~on_stop =
  ignore
    (Thread.create (fun () -> accept_loop t ~dispatch ~on_shutdown ~on_stop) ())
