(** The daemon skeleton shared by the shard daemon ({!Server}) and the
    fleet router ({!Router}): one Unix-domain listening socket, one
    reader thread per client connection, and the stop/teardown
    sequence.  The owner supplies only what differs — how a request
    frame is answered, and what to release at teardown.

    Each connection thread drains every complete frame the last [read]
    syscall delivered ({!Wire.Buffered}), hands each one to the owner's
    [dispatch] in arrival order, then resolves the replies in that same
    order into one batched write ({!Wire.Batch}), flushed at 256 KiB
    and whenever the input runs dry — a pipelined client costs one
    syscall pair per batch.  Dispatching the whole batch before
    resolving any of it lets an owner start work for later frames
    (the router forwards them to shards) while earlier ones are still
    pending.

    Edge behaviour is the listener's, identical for every owner:
    a well-framed payload that is not valid JSON, or not a known
    request, is answered with a typed [Error] reply and the connection
    stays open; a framing error (bad header, oversized or truncated
    frame) is answered with an [Error] reply and the connection is
    closed, since the stream cannot be resynchronized.  A [Shutdown]
    frame is never dispatched: the frames before it are answered, its
    [Bye] is flushed, frames after it are dropped, the owner's
    [on_shutdown] runs, and the listener stops. *)

type t

(** [bind socket_path] ignores SIGPIPE process-wide (a client hanging
    up mid-reply must not kill the daemon), binds and listens on
    [socket_path], and starts the uptime clock.  A socket file left by
    a crashed daemon is replaced; a path a live daemon still answers on
    is refused.  No connection is accepted before {!serve}.
    @raise Unix.Unix_error ([EADDRINUSE] for a live daemon) when the
    socket cannot be bound. *)
val bind : string -> t

(** [serve t ~dispatch ~on_shutdown ~on_stop] spawns the accept thread
    and returns.  [dispatch raw req] is called once per request frame
    other than [Shutdown], with the frame's payload bytes and its
    decoded request; the function it returns produces the reply frame's
    payload and is called later, in frame order.  [on_shutdown] runs
    after a [Shutdown] frame's [Bye] is on the wire, just before the
    stop begins.  [on_stop] runs during teardown, which goes: close the
    listening socket, remove the socket file, shut down live client
    connections, [on_stop], close the stop pipe, wake {!wait}. *)
val serve :
  t ->
  dispatch:(string -> Protocol.request -> unit -> string) ->
  on_shutdown:(unit -> unit) ->
  on_stop:(unit -> unit) ->
  unit

(** Ask the accept loop to stop and tear down; returns at once.
    Idempotent. *)
val initiate_stop : t -> unit

(** Whether a stop has been initiated. *)
val stopping : t -> bool

(** Block until teardown has finished. *)
val wait : t -> unit

(** [initiate_stop] then [wait]. *)
val stop : t -> unit

(** Seconds since {!bind}, on the monotonic clock ({!Pdw_obs.Clock}):
    a wall-clock step cannot make it jump or go negative. *)
val uptime_s : t -> float
