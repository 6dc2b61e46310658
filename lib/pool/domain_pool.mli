(** A small fixed pool of worker domains for embarrassingly-parallel
    fan-out (per-benchmark synthesis and optimization in the harness and
    tests).

    The pool spawns [size - 1] worker domains; during [map] the calling
    domain drains the queue alongside them, so a pool of size [n] keeps
    exactly [n] domains busy.  A pool of size 1 spawns nothing and runs
    every job inline — single-core machines degrade gracefully to the
    serial behaviour.

    A pool created with [~dedicated:true] instead owns one private
    queue per worker: [submit_to] targets a specific worker, so a
    sharded caller (the planning service hashes plan digests to shards)
    touches one short per-worker lock, never a pool-global one. *)

type t

(** Default pool size: [Domain.recommended_domain_count ()], clamped to
    [1..8] (the fan-out here is at most the eight Table II benchmarks). *)
val default_size : unit -> int

(** [create ?size ?dedicated ()] makes a pool.  [size] defaults to
    [default_size]; values below 1 are clamped to 1.

    With [~dedicated:true] the pool owns [size] workers, each draining
    its own private queue continuously — the owning domain never
    participates.  A dedicated worker's domain is spawned lazily, on
    the first job ever sent its way: every live domain lengthens the
    stop-the-world barrier of every minor collection, so a queue that
    never sees a job never costs one.  This is the mode for long-lived
    asynchronous use ([submit_to], as in the planning service); the
    default mode spawns [size - 1] domains eagerly for [map]-style
    fan-out where the caller drains alongside them. *)
val create : ?size:int -> ?dedicated:bool -> unit -> t

val size : t -> int

(** [submit_to t i job] enqueues [job] on worker [i]'s private queue and
    returns immediately.  Exceptions from [job] are swallowed by the
    worker loop; completion signalling is the caller's responsibility.
    @raise Invalid_argument on a non-dedicated or shut-down pool, or an
    out-of-range worker index. *)
val submit_to : t -> int -> (unit -> unit) -> unit

(** One dedicated worker's telemetry.  [pending] is the queue's depth
    now and [peak] the deepest it has ever been at enqueue time; the
    rest is sampled by the worker itself after each completed job.
    [minor_words]/[major_words] are the worker domain's cumulative GC
    allocation counters
    ([Gc.quick_stat], domain-local in OCaml 5 — only the worker can
    read its own), so their deltas rate cleanly in a scraper.  [live]
    is whether the lazily-spawned domain exists yet. *)
type worker_stats = {
  pending : int;
  peak : int;
  jobs_done : int;
  minor_words : float;
  major_words : float;
  live : bool;
}

(** Per-worker telemetry snapshot, index [i] for worker [i].  [[||]]
    for a non-dedicated pool. *)
val worker_stats : t -> worker_stats array

(** [map t f xs] applies [f] to every element, fanning the calls out
    across the pool.  Results keep list order.  If any call raised, one
    of the exceptions is re-raised after all jobs have settled. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Signal the workers to exit and join them.  Jobs still queued are
    abandoned.  The pool must not be used afterwards. *)
val shutdown : t -> unit

(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)
val with_pool : ?size:int -> (t -> 'a) -> 'a
