(* A small fixed pool of worker domains for embarrassingly-parallel
   fan-out (per-benchmark synthesis and optimization in the harness and
   tests).  The pool owns [size - 1] worker domains; the caller's domain
   participates in draining the queue during [map], so a pool of size n
   keeps exactly n domains busy.  A pool of size 1 spawns nothing and
   runs everything inline, which keeps single-core machines and
   recursive uses (a map inside a map) safe.

   A pool created with [~dedicated:true] instead owns one *private*
   queue per worker: [submit_to] targets a specific worker, so a caller
   that shards its work (the planning service hashes plan digests to
   shards) pays for one short per-worker lock, never a pool-global
   one. *)

type job = unit -> unit

(* One worker's private queue (dedicated mode).  [peak] is the largest
   depth ever observed at enqueue time — cheap to maintain here, and
   the service's stats/bench layers want per-worker backlog peaks.
   [domain] is spawned lazily on the first job: every live domain costs
   real throughput even when idle (each one extends the stop-the-world
   barrier of every minor collection), so a shard that never sees a
   job must never pay for a worker. *)
type worker_queue = {
  q : job Queue.t;
  m : Mutex.t;
  c : Condition.t;
  mutable peak : int;
  mutable domain : unit Domain.t option;
  (* Telemetry the worker writes about itself, under [m].  The GC word
     counts come from the worker's own [Gc.quick_stat] — minor/major
     words are domain-local in OCaml 5, so only the worker can read
     them — sampled once per completed job. *)
  mutable jobs_done : int;
  mutable minor_words : float;
  mutable major_words : float;
}

type worker_stats = {
  pending : int;
  peak : int;
  jobs_done : int;
  minor_words : float;
  major_words : float;
  live : bool;
}

type t = {
  size : int;
  dedicated : bool;
  queue : job Queue.t;  (* map-mode shared queue *)
  mutex : Mutex.t;
  nonempty : Condition.t;
  wqs : worker_queue array;  (* dedicated mode; [||] otherwise *)
  closed : bool Atomic.t;
  mutable workers : unit Domain.t list;
}

let default_size () = max 1 (min 8 (Domain.recommended_domain_count ()))

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if Atomic.get t.closed then None
    else
      match Queue.take_opt t.queue with
      | Some job -> Some job
      | None ->
        Condition.wait t.nonempty t.mutex;
        next ()
  in
  let job = next () in
  Mutex.unlock t.mutex;
  match job with
  | None -> ()
  | Some job ->
    (try job () with _ -> ());
    worker_loop t

(* A dedicated worker drains only its own queue.  No stealing: the
   point of per-worker queues is that a shard's jobs stay on the
   shard's worker, and admission bounds each queue upstream. *)
let rec dedicated_loop t w =
  Mutex.lock w.m;
  let rec next () =
    if Atomic.get t.closed then None
    else
      match Queue.take_opt w.q with
      | Some job -> Some job
      | None ->
        Condition.wait w.c w.m;
        next ()
  in
  let job = next () in
  Mutex.unlock w.m;
  match job with
  | None -> ()
  | Some job ->
    (try job () with _ -> ());
    let gc = Gc.quick_stat () in
    Mutex.lock w.m;
    w.jobs_done <- w.jobs_done + 1;
    w.minor_words <- gc.Gc.minor_words;
    w.major_words <- gc.Gc.major_words;
    Mutex.unlock w.m;
    dedicated_loop t w

let create ?size ?(dedicated = false) () =
  let size = match size with Some s -> max 1 s | None -> default_size () in
  let t =
    {
      size;
      dedicated;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      wqs =
        (if dedicated then
           Array.init size (fun _ ->
               {
                 q = Queue.create ();
                 m = Mutex.create ();
                 c = Condition.create ();
                 peak = 0;
                 domain = None;
                 jobs_done = 0;
                 minor_words = 0.0;
                 major_words = 0.0;
               })
         else [||]);
      closed = Atomic.make false;
      workers = [];
    }
  in
  (* A dedicated pool's workers are spawned lazily, one per queue, on
     first use (see [submit_to]); a map-style pool spawns [size - 1]
     eagerly and the caller drains alongside them. *)
  if not dedicated then
    t.workers <-
      List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size

(* Fire-and-forget onto worker [i]'s private queue.  The job's own
   completion signalling (if any) is the caller's business — the
   planning service layers job records with mutex/condvar on top. *)
let submit_to t i job =
  if not t.dedicated then
    invalid_arg "Domain_pool.submit_to: pool was not created with ~dedicated";
  if i < 0 || i >= t.size then
    invalid_arg
      (Printf.sprintf "Domain_pool.submit_to: worker %d of %d" i t.size);
  let w = t.wqs.(i) in
  Mutex.lock w.m;
  if Atomic.get t.closed then begin
    Mutex.unlock w.m;
    invalid_arg "Domain_pool.submit_to: pool is shut down"
  end;
  Queue.add job w.q;
  let depth = Queue.length w.q in
  if depth > w.peak then w.peak <- depth;
  if w.domain = None then
    (* First job ever for this worker: bring its domain up now.  The
       job is already queued, so the fresh loop finds it without
       needing the signal below. *)
    w.domain <- Some (Domain.spawn (fun () -> dedicated_loop t w));
  Condition.signal w.c;
  Mutex.unlock w.m

let worker_stats t =
  Array.map
    (fun w ->
      Mutex.lock w.m;
      let s =
        {
          pending = Queue.length w.q;
          peak = w.peak;
          jobs_done = w.jobs_done;
          minor_words = w.minor_words;
          major_words = w.major_words;
          live = w.domain <> None;
        }
      in
      Mutex.unlock w.m;
      s)
    t.wqs

let shutdown t =
  Atomic.set t.closed true;
  Mutex.lock t.mutex;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  (* Collect each dedicated worker's domain under its queue lock —
     [submit_to] observes [closed] under the same lock, so no spawn can
     race past this point. *)
  let lazy_workers =
    Array.fold_left
      (fun acc w ->
        Mutex.lock w.m;
        Condition.broadcast w.c;
        let d = w.domain in
        w.domain <- None;
        Mutex.unlock w.m;
        match d with Some d -> d :: acc | None -> acc)
      [] t.wqs
  in
  List.iter Domain.join lazy_workers;
  List.iter Domain.join t.workers;
  t.workers <- []

(* Results are collected positionally; exceptions propagate to the
   caller once every slot has settled (so no worker is left writing into
   a dead array). *)
let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.size = 1 -> List.map f xs
  | xs ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let run i =
      let r = try Ok (f arr.(i)) with e -> Error e in
      results.(i) <- Some r;
      ignore (Atomic.fetch_and_add remaining (-1))
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (fun () -> run i) t.queue
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    (* The caller drains the queue alongside the workers, then spins
       briefly for stragglers still executing their last job. *)
    let rec drain () =
      Mutex.lock t.mutex;
      let job = Queue.take_opt t.queue in
      Mutex.unlock t.mutex;
      match job with
      | Some job ->
        job ();
        drain ()
      | None -> ()
    in
    drain ();
    while Atomic.get remaining > 0 do
      Domain.cpu_relax ()
    done;
    Array.to_list
      (Array.map
         (function
           | Some (Ok r) -> r
           | Some (Error e) -> raise e
           | None -> assert false)
         results)

let with_pool ?size f =
  let t = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
