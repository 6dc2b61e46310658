(** The planning daemon: a Unix-domain-socket server that turns framed
    JSON requests ({!Wire}, {!Protocol}) into wash plans.

    Admission is sharded: a request's content digest hashes to one of
    [workers] shards, and everything the request touches — the
    coalescing table, the bounded admission slots, the tallies, the
    latency histograms, the plan-cache shard, the worker's run queue — is
    private to that shard.  There is no global front-door lock;
    requests on different shards proceed independently, so throughput
    scales with worker count instead of serializing on shared state.

    Request flow for a [submit]:

    + digest the canonicalized spec ({!Protocol.digest}) and pick its
      shard;
    + consult the sharded plan cache — a hit answers immediately with
      the stored outcome text, touching only the cache shard's lock;
    + coalesce: if an identical job is already queued or running on the
      shard, join it as a waiter (no admission slot consumed — the
      waiter adds no work);
    + shard admission: a fresh job takes one of the shard's
      [queue_limit / workers] (rounded up) in-flight slots or is
      refused with an explicit [shed] reply — the queue is bounded at
      the front door, never silently;
    + the job runs on the shard's own {!Pdw_pool.Domain_pool} worker
      queue ([submit_to]), retrying crashed attempts up to
      [max_retries] times, then stores the outcome in the cache and
      wakes every waiter;
    + a waiter that outlives [job_timeout_ms] gets a [timeout] reply;
      the job itself keeps running and still populates the cache.

    Framing stays off the compute path: the socket, its accept loop and
    each connection's reader thread belong to {!Listener}, which drains
    every complete frame a single [read] syscall delivered
    ({!Wire.Buffered}), batches the replies, and flushes them in one
    write when the input runs dry ({!Wire.Batch}) — pipelined clients
    cost one syscall pair per batch.  Worker domains never touch a
    socket.

    Served outcomes are byte-identical to [pdw run --json] on the same
    spec: workers run the same synthesis/optimize/serialize pipeline
    ({!Engine}), and replies splice the outcome text verbatim
    ({!Protocol.reply_to_string}). *)

type config = {
  socket_path : string;
  workers : int;  (** planner worker domains = shards *)
  queue_limit : int;
      (** max jobs in flight (queued + running), split evenly across
          shards: each shard admits up to [queue_limit / workers]
          (rounded up) jobs, so the effective global limit is that
          per-shard bound times [workers] — never below [queue_limit].
          The split is a deliberate trade for lock-free-across-shards
          admission: a digest-skewed workload whose distinct digests
          all hash to one shard is shed once that shard's bound fills,
          i.e. at roughly [1/workers] of the global limit, even while
          other shards sit idle.  [shed] replies always report the
          global in-flight count and the global effective limit. *)
  cache_capacity : int;  (** plan-cache entries, split across shards *)
  job_timeout_ms : int;  (** per-request wait before a [timeout] reply *)
  max_retries : int;  (** extra planner attempts after a crash *)
  store_dir : string option;
      (** persistent {!Plan_store} directory backing the plan cache as
          a second tier — cached plans survive restarts, and shard
          processes pointed at the same directory share warm plans *)
  store_max_bytes : int;  (** store byte budget (LRU-evicted) *)
}

(** Defaults: 2 workers, 64 in-flight jobs, 256 cached plans, 60 s
    timeout, 1 retry, no persistent store (256 MiB budget when one is
    configured). *)
val default_config : socket_path:string -> config

type t

(** [start config] binds the socket (replacing a stale socket file),
    spawns the worker domains and the accept thread, and returns
    immediately.  SIGPIPE is ignored process-wide (a client hanging up
    mid-reply must not kill the daemon).
    @raise Unix.Unix_error when the socket cannot be bound. *)
val start : config -> t

val config : t -> config

(** Handle one request in-process, exactly as a connection would — the
    unit-testable core of the daemon.  [Shutdown] replies [Bye] and
    initiates [stop] asynchronously. *)
val handle : t -> Protocol.request -> Protocol.reply

(** The [stats] payload.  Totals (queue depth, shed count, cache hit
    rate, request tallies, p50/p95/p99 latency) are field-wise sums of
    the per-shard snapshots listed under ["shards"] — each row carries
    its shard's in-flight count, depth peak, shed/coalesce counters,
    worker-queue depth and peak, and cache-shard counters, so the
    aggregate is internally consistent with the breakdown. *)
val stats_json : t -> Pdw_obs.Json.t

(** The scrape surface: Prometheus text exposition of every counter,
    gauge and histogram the server keeps — merged families ([pdw_*]),
    their exact per-shard breakdowns ([pdw_shard_*{shard=…}]), worker
    queue/GC families ([pdw_worker_*{worker=…}]) and the process-global
    {!Pdw_obs.Counters} registry.  Served for the [metrics] protocol
    verb and [pdw stats --prometheus]. *)
val metrics_text : t -> string

(** Merged (exact bucket-wise sum over shards) copies of the server's
    cumulative histograms.  [latency] is submit wall time accept to
    reply; [queue_wait] admission to worker pickup; [service] worker
    compute time per job — all in milliseconds.  Snapshot two and
    {!Pdw_obs.Histogram.diff} them for an interval view (the serve
    bench reports per-campaign queue-wait vs service-time this way). *)
type telemetry = {
  latency : Pdw_obs.Histogram.t;
  queue_wait : Pdw_obs.Histogram.t;
  service : Pdw_obs.Histogram.t;
}

val telemetry : t -> telemetry

(** The most recent finished submits (bounded ring, newest first):
    request id, digest, shard, outcome, and the stage-by-stage timing
    breakdown.  See {!Pdw_obs.Reqtrace}. *)
val recent_requests : t -> Pdw_obs.Reqtrace.record list

(** Peak queued+running admission depth per shard since start — the
    serve bench records these alongside its scaling curve. *)
val shard_depth_peaks : t -> int list

(** Initiate shutdown and wait: stop accepting, close live connections,
    join the worker domains (running jobs finish; queued jobs are
    abandoned — their waiters are gone with the connections).  The
    socket file is removed.  Idempotent. *)
val stop : t -> unit

(** Block until the server has stopped (via [stop] or a [shutdown]
    request). *)
val wait : t -> unit
