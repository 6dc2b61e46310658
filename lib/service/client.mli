(** A blocking client for the planning daemon: one Unix-socket
    connection, synchronous request/reply, with optional pipelining. *)

type t

(** [connect path] dials the daemon's socket.
    @raise Unix.Unix_error when nothing is listening. *)
val connect : string -> t

(** [request t req] sends one request and reads its reply.  Transport
    and protocol failures come back as [Error] — a client never
    raises mid-conversation. *)
val request : t -> Protocol.request -> (Protocol.reply, string) result

(** [request_many t reqs] pipelines: requests leave in batched writes
    ({!Wire.Batch}) and the replies are read back in request order.
    The batch is written in bounded chunks — each chunk's replies are
    drained before the next chunk is sent — so a batch of any size is
    safe: unbounded write-before-read could deadlock against a server
    blocked flushing replies.  The result list is positionally aligned
    with [reqs].  On a transport failure every not-yet-answered slot
    carries the error. *)
val request_many :
  t -> Protocol.request list -> (Protocol.reply, string) result list

val close : t -> unit

(** [with_client path f] connects, runs [f], always closes. *)
val with_client : string -> (t -> 'a) -> 'a

(** [request_once path req] sends one request on a fresh connection to
    [path] and closes it.  A daemon that cannot be reached comes back as
    [Error "cannot reach PATH: REASON"]. *)
val request_once : string -> Protocol.request -> (Protocol.reply, string) result

(** [wait_for_daemon path ~timeout_s] pings [path] every 50 ms until a
    daemon answers [Pong] ([true]) or [timeout_s] seconds pass on the
    monotonic clock ([false]). *)
val wait_for_daemon : string -> timeout_s:float -> bool

(** [reap pids ~timeout_s] waits for the child processes [pids] to
    exit, polling every 50 ms; any still running once [timeout_s]
    seconds pass on the monotonic clock is sent SIGKILL and reaped.
    [~timeout_s:0.0] kills and reaps at once. *)
val reap : int list -> timeout_s:float -> unit
