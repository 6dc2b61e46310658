(* A verifying load generator: one thread, at most [nproc]
   connections, raw [Wire] frames.  Requests are pre-encoded bytes;
   replies are handed to a callback as bytes, so the client never
   builds a JSON tree on the measured path.

   The open loop sends on a fixed schedule whatever the replies do and
   times each request from when it was due, so a stall is charged to
   every request queued behind it; [lag] records how late each send
   actually left.  The closed loop keeps [depth] requests outstanding
   per connection and times each from its send. *)

module Wire = Pdw_service.Wire
module Clock = Pdw_obs.Clock
module Trace = Pdw_obs.Trace

type pending = { idx : int; due : float; sent : float }

type conn = { fd : Unix.file_descr; rd : Wire.Buffered.t; pending : pending Queue.t }

let connect socket =
  let fd = Daemon.connect socket in
  { fd; rd = Wire.Buffered.create fd; pending = Queue.create () }

let close c = Unix.close c.fd

exception Closed

let send c ~idx ~due bytes =
  Trace.with_span ~cat:"bench" "wire.write" (fun () -> Wire.write_frame c.fd bytes);
  let p = { idx; due; sent = Clock.now () } in
  Queue.push p c.pending;
  p

(* Read one frame; [on_reply p ~at bytes] gets the time it arrived. *)
let receive c on_reply =
  match Trace.with_span ~cat:"bench" "wire.read" (fun () -> Wire.Buffered.read_frame c.rd) with
  | Some bytes ->
    let at = Clock.now () in
    let p = Queue.pop c.pending in
    Trace.with_span ~cat:"bench" "client.verify" (fun () -> on_reply p ~at bytes)
  | None -> raise Closed

let rec select rs ws timeout =
  match Unix.select rs ws [] timeout with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select rs ws timeout

(* Connections with a reply ready, waiting at most [timeout] seconds. *)
let ready conns timeout =
  match List.filter (fun c -> Wire.Buffered.has_frame c.rd) conns with
  | _ :: _ as buffered -> buffered
  | [] ->
    let live = List.filter (fun c -> not (Queue.is_empty c.pending)) conns in
    let fds, _ = select (List.map (fun c -> c.fd) live) [] timeout in
    List.filter (fun c -> List.memq c.fd fds) live

(* Whether [c] has a reply ready and whether a request can be written
   without blocking, waiting at most [timeout] seconds.  Writing only
   when the socket has room keeps an open loop that fell behind from
   deadlocking against a daemon blocked on writing replies nobody
   reads. *)
let poll c ~want_write timeout =
  if Wire.Buffered.has_frame c.rd then (true, false)
  else begin
    let rs = if Queue.is_empty c.pending then [] else [ c.fd ] in
    let ws = if want_write then [ c.fd ] else [] in
    let r, w = select rs ws timeout in
    (r <> [], w <> [])
  end

(* [open_loop c ~rate ~order ~bytes ~lag on_reply]: request [order.(i)]
   is due at [t0 + i / rate]; [lag] gets how late each one was sent.
   Returns the wall seconds from the first due time to the last
   reply. *)
let open_loop c ~rate ~order ~bytes ~lag on_reply =
  let n = Array.length order in
  let t0 = Clock.now () +. 0.001 in
  let due i = t0 +. (float_of_int i /. rate) in
  let i = ref 0 and last = ref t0 in
  while !i < n || not (Queue.is_empty c.pending) do
    let now = Clock.now () in
    let overdue = !i < n && due !i <= now in
    let timeout = if overdue || !i >= n then 1.0 else due !i -. now in
    let readable, writable = poll c ~want_write:overdue timeout in
    if readable then receive c (fun p ~at b -> last := at; on_reply p ~at b);
    if writable then begin
      let p = send c ~idx:order.(!i) ~due:(due !i) bytes.(order.(!i)) in
      Samples.add lag ((p.sent -. p.due) *. 1000.0);
      incr i
    end
  done;
  !last -. t0

(* [closed_loop conns ~depth ~seconds ~next ~bytes on_reply]: each
   connection keeps [depth] requests in flight until [seconds] have
   passed or [next ()], which picks the next spec index, returns
   [None]; then it drains.  Returns the wall seconds from the first
   send to the last reply. *)
let closed_loop conns ~depth ~seconds ~next ~bytes on_reply =
  let t0 = Clock.now () in
  let deadline = t0 +. seconds in
  let push c =
    match next () with
    | Some k ->
      let now = Clock.now () in
      ignore (send c ~idx:k ~due:now bytes.(k))
    | None -> ()
  in
  List.iter (fun c -> for _ = 1 to depth do push c done) conns;
  let last = ref t0 in
  let busy () = List.exists (fun c -> not (Queue.is_empty c.pending)) conns in
  while busy () do
    List.iter
      (fun c ->
        receive c (fun p ~at b -> last := at; on_reply p ~at b);
        if Clock.now () < deadline then push c)
      (ready conns 1.0)
  done;
  !last -. t0

(* A request outside the load: only when nothing is in flight, and
   through the buffered reader that owns the stream. *)
let request c bytes =
  assert (Queue.is_empty c.pending);
  Wire.write_frame c.fd bytes;
  match Wire.Buffered.read_frame c.rd with Some r -> r | None -> raise Closed
