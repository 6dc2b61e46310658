module Coord = Pdw_geometry.Coord
module Grid = Pdw_geometry.Grid
module Gpath = Pdw_geometry.Gpath
module Layout = Pdw_biochip.Layout
module Port = Pdw_biochip.Port
module Trace = Pdw_obs.Trace
module Counters = Pdw_obs.Counters

let c_flush_calls = Counters.counter "synth.router.flush_calls"
let c_flush_hits = Counters.counter "synth.router.flush_memo_hits"
let c_flush_misses = Counters.counter "synth.router.flush_memo_misses"
let c_memo_evictions = Counters.counter "synth.router.flush_memo_evictions"
let c_lb_pruned = Counters.counter "synth.router.pairs_lb_pruned"
let c_covering = Counters.counter "synth.router.covering_searches"

(* Public searches run on the calling domain's flat-array arena; see
   [Search_kernel] for the path-identity guarantee. *)

let shortest layout ?avoid ~src ~dst () =
  Search_kernel.shortest (Search_kernel.for_layout layout) ?avoid ~src ~dst ()

let cheapest layout ?avoid ~cost ~src ~dst () =
  Search_kernel.cheapest
    (Search_kernel.for_layout layout)
    ?avoid ~cost ~src ~dst ()

let covering layout ?avoid ?cost ~src ~dst ~targets () =
  Search_kernel.covering
    (Search_kernel.for_layout layout)
    ?avoid ?cost ~src ~dst ~targets ()

(* --- flush ----------------------------------------------------------- *)

(* Kept so existing callers still link; the flush always runs on the
   calling domain. *)
let set_flush_domains (_ : int) = ()

let flush_uncached layout ~avoid ?cost ~targets () =
  Trace.with_span ~cat:"synth" "router.flush" @@ fun () ->
  let flow_ports = Layout.flow_ports layout in
  let waste_ports = Layout.waste_ports layout in
  let nwaste = List.length waste_ports in
  let arena = Search_kernel.for_layout layout in
  let idx_of (p : Port.t) = Search_kernel.idx_of_coord arena p.Port.position in
  let target_idx =
    List.map (Search_kernel.idx_of_coord arena) (Coord.Set.elements targets)
  in
  (* Pair indices follow the legacy evaluation order (flow ports outer,
     waste ports inner): the earliest pair among equal-cost paths must
     keep winning. *)
  let stride = max 1 (List.length flow_ports * nwaste) in
  (* Exact lower bound on a pair's covering-path cost: every cell costs
     at least 1, any covering path visits src, every target and dst, and
     [Layout.port_distances] is the true grid distance over routable
     cells — so [1 + max(d_src dst, max_t (d_src t + d_t dst))]
     lower-bounds the cell count and hence the cost.  [max_int] means
     some target (or dst) is unreachable even ignoring the
     through-routability constraint, so the pair can never cover. *)
  let bound fp wp =
    let d_src = Layout.port_distances layout fp.Port.id in
    let d_dst = Layout.port_distances layout wp.Port.id in
    List.fold_left
      (fun acc t ->
        if acc = max_int || d_src.(t) = max_int || d_dst.(t) = max_int then
          max_int
        else max acc (d_src.(t) + d_dst.(t)))
      d_src.(idx_of wp) target_idx
  in
  (* Each flow port with its pairs [(idx, waste port, packed bound)]
     that can cover at all.  A pair's packed bound [lb * stride + idx]
     orders like its packed cost below. *)
  let flows =
    List.mapi
      (fun fi fp ->
        let pairs =
          List.mapi
            (fun wi wp ->
              let idx = (fi * nwaste) + wi in
              match bound fp wp with
              | b when b = max_int ->
                Counters.incr c_lb_pruned;
                None
              | b -> Some (idx, wp, ((1 + b) * stride) + idx))
            waste_ports
          |> List.filter_map Fun.id
        in
        (fp, pairs))
      flow_ports
    |> List.filter (fun (_, pairs) -> pairs <> [])
  in
  (* Most promising flow ports first, so the incumbent tightens early
     and prunes the rest; the winner does not depend on this order (see
     below). *)
  let first (_, pairs) =
    List.fold_left (fun acc (_, _, pb) -> min acc pb) max_int pairs
  in
  let flows =
    List.map (fun f -> (first f, f)) flows
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  (* A waste port the chain could sweep up or must avoid — a target or
     an [avoid] cell — breaks the shared chain's exactness, so its pairs
     run their own covering search.  No planner caller sends one. *)
  let own_search wp =
    Coord.Set.mem wp.Port.position targets
    || Coord.Set.mem wp.Port.position avoid
  in
  (* The incumbent is the packed pair [cost * stride + idx], so
     comparisons order by cost first and original pair index second —
     exactly the "first strictly-cheaper pair wins" rule.  A pair is
     pruned only when even its bound packs above the incumbent, i.e.
     when it cannot possibly win, so the winner is the same in any
     evaluation order. *)
  let incumbent = ref max_int in
  let best = ref None in
  let offer packed fp wp path =
    if packed < !incumbent then begin
      incumbent := packed;
      (* Only improving pairs materialize their path. *)
      best := Some (path (), fp.Port.id, wp.Port.id)
    end
  in
  (* One flow port: a single chain prices all its shared pairs, then
     each own-search pair runs its covering search in full. *)
  let eval (fp, pairs) =
    let live = List.filter (fun (_, _, pb) -> pb <= !incumbent) pairs in
    Counters.add c_lb_pruned (List.length pairs - List.length live);
    if live <> [] then begin
      let src = idx_of fp in
      let own, shared = List.partition (fun (_, wp, _) -> own_search wp) live in
      if shared <> [] then begin
        Counters.incr c_covering;
        match Search_kernel.covering_fan arena ~src with
        | None -> ()
        | Some base -> (
          let cheapest =
            List.fold_left
              (fun acc (idx, wp, _) ->
                match Search_kernel.fan_cost arena ~dst:(idx_of wp) with
                | None -> acc
                | Some d -> (
                  let packed = ((base + d) * stride) + idx in
                  match acc with
                  | Some (bp, _) when bp <= packed -> acc
                  | _ -> Some (packed, wp)))
              None shared
          in
          match cheapest with
          | None -> ()
          | Some (packed, wp) ->
            offer packed fp wp (fun () ->
                Search_kernel.fan_path arena ~dst:(idx_of wp)))
      end;
      List.iter
        (fun (idx, wp, pb) ->
          if pb > !incumbent then Counters.incr c_lb_pruned
          else begin
            Counters.incr c_covering;
            match Search_kernel.covering_run arena ~src ~dst:(idx_of wp) with
            | None -> ()
            | Some total ->
              offer ((total * stride) + idx) fp wp (fun () ->
                  Search_kernel.path_of_buf arena)
          end)
        own
    end
  in
  if flows <> [] then begin
    Search_kernel.prepare arena ~avoid ~cost ~targets ();
    List.iter eval flows
  end;
  !best

(* --- memoization --------------------------------------------------- *)

(* With no avoid set and no cost function, a flush path depends only on
   the (immutable) layout and the target set, so results are memoized:
   the planner asks for the same fallback path for the same group across
   rounds, and DAWO-style planning always takes this branch.  Layouts
   are keyed by physical identity in a small LRU registry; target sets
   by their sorted elements, because structurally equal [Coord.Set.t]
   trees can hash differently.  The registry lock covers only the scan
   and eviction; each entry's own lock covers its table operations, so
   a long flush on one layout never blocks lookups on another. *)

type memo_entry = {
  m_layout : Layout.t;
  tbl : (Coord.t list, (Gpath.t * int * int) option) Hashtbl.t;
  tbl_lock : Mutex.t;
  mutable last_used : int;
}

let memo_registry : memo_entry list ref = ref []
let memo_registry_lock = Mutex.create ()
let memo_clock = Atomic.make 0
let flush_memo_cap = 8

let flush_table layout =
  let tick = 1 + Atomic.fetch_and_add memo_clock 1 in
  Mutex.lock memo_registry_lock;
  let entry =
    match
      List.find_opt (fun e -> e.m_layout == layout) !memo_registry
    with
    | Some e ->
      e.last_used <- tick;
      e
    | None ->
      if List.length !memo_registry >= flush_memo_cap then begin
        let victim =
          List.fold_left
            (fun acc e ->
              match acc with
              | Some b when b.last_used <= e.last_used -> acc
              | _ -> Some e)
            None !memo_registry
        in
        match victim with
        | Some v ->
          memo_registry := List.filter (fun e -> e != v) !memo_registry;
          Counters.incr c_memo_evictions
        | None -> ()
      end;
      let e =
        {
          m_layout = layout;
          tbl = Hashtbl.create 64;
          tbl_lock = Mutex.create ();
          last_used = tick;
        }
      in
      memo_registry := e :: !memo_registry;
      e
  in
  Mutex.unlock memo_registry_lock;
  entry

let flush layout ?avoid ?cost ~targets () =
  Counters.incr c_flush_calls;
  match (avoid, cost) with
  | None, None ->
    let entry = flush_table layout in
    let key = Coord.Set.elements targets in
    let cached =
      Mutex.lock entry.tbl_lock;
      let r = Hashtbl.find_opt entry.tbl key in
      Mutex.unlock entry.tbl_lock;
      r
    in
    (match cached with
    | Some result ->
      Counters.incr c_flush_hits;
      result
    | None ->
      Counters.incr c_flush_misses;
      let result = flush_uncached layout ~avoid:Coord.Set.empty ~targets () in
      Mutex.lock entry.tbl_lock;
      Hashtbl.replace entry.tbl key result;
      Mutex.unlock entry.tbl_lock;
      result)
  | _ ->
    let avoid = Option.value avoid ~default:Coord.Set.empty in
    flush_uncached layout ~avoid ?cost ~targets ()

let reachable layout ~src =
  let seen = Coord.Table.create 64 in
  let queue = Queue.create () in
  if Layout.routable layout src then begin
    Coord.Table.replace seen src ();
    Queue.add src queue
  end;
  while not (Queue.is_empty queue) do
    let here = Queue.pop queue in
    let expandable =
      Coord.equal here src || Layout.through_routable layout here
    in
    if expandable then
      List.iter
        (fun next ->
          if Layout.routable layout next && not (Coord.Table.mem seen next)
          then begin
            Coord.Table.replace seen next ();
            Queue.add next queue
          end)
        (Grid.neighbours (Layout.grid layout) here)
  done;
  Coord.Table.fold (fun c () acc -> Coord.Set.add c acc) seen Coord.Set.empty
