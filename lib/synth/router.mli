(** Maze routing over a chip layout.

    Paths traverse channel and device cells; port cells terminate paths
    (fluid never flows through a port).  BFS guarantees shortest paths,
    which the tests rely on.

    The searches run on a reusable flat-array arena ({!Search_kernel}),
    on the calling domain. *)

(** [shortest layout ~src ~dst ()] is a shortest path from [src] to [dst],
    or [None] when unreachable.

    @param avoid cells the path must not touch (besides non-routable ones);
    endpoints are exempt. *)
val shortest :
  Pdw_biochip.Layout.t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** [cheapest layout ~cost ~src ~dst ()] is a minimum-cost path where
    entering cell [c] costs [1 + cost c] ([cost] must be non-negative).
    Used by synthesis to route transports away from cells already carrying
    other fluids, mimicking the dedicated channels a PathDriver-style
    synthesis tool etches. *)
val cheapest :
  Pdw_biochip.Layout.t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  cost:(Pdw_geometry.Coord.t -> int) ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** [covering layout ~src ~dst ~targets ()] is a simple path from [src] to
    [dst] passing through every target cell, built by greedy
    nearest-target chaining; or [None] when the greedy order fails.  The
    result is feasible but not necessarily minimum; the exact alternative
    is [Pdw_wash.Wash_path_ilp] in the core library. *)
val covering :
  Pdw_biochip.Layout.t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  ?cost:(Pdw_geometry.Coord.t -> int) ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  targets:Pdw_geometry.Coord.Set.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** [flush layout ~targets ()] is the shortest covering path over all
    (flow port, waste port) pairs: the [flow port -> contaminated spots ->
    waste port] structure every wash/flush path must have (Eq. (12)).
    Returns the path with the chosen port ids, or [None] when no pair can
    cover the targets.  The result is the cheapest {!covering} path
    (cost [Σ 1 + cost c] over its cells), ties to the earliest pair in
    flow-port-major order.

    The greedy chain of {!covering} never depends on its destination
    port, so each flow port runs it once and one search from its last
    cell prices the final segment to every waste port.  A waste port
    that is a target or in [avoid] falls back to its own {!covering}
    search.

    Counters: [synth.router.covering_searches] counts chains — one per
    flow port evaluated plus one per fallback search.
    [synth.router.pairs_lb_pruned] counts pairs never priced: those
    with an unreachable target, those whose lower bound already loses
    to the best pair found when their flow port (or fallback search)
    comes up — a skipped flow port adds all its remaining pairs.  Flow
    ports are evaluated in order of their best lower bound, so both
    counts repeat exactly from run to run. *)
val flush :
  Pdw_biochip.Layout.t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  ?cost:(Pdw_geometry.Coord.t -> int) ->
  targets:Pdw_geometry.Coord.Set.t ->
  unit ->
  (Pdw_geometry.Gpath.t * int * int) option

(** Cells reachable from [src] (inclusive) through routable cells;
    port cells are included when adjacent to a reached cell but not
    expanded through. *)
val reachable :
  Pdw_biochip.Layout.t -> src:Pdw_geometry.Coord.t -> Pdw_geometry.Coord.Set.t

(** Ignored: every flush runs on the calling domain.  Kept only so
    existing callers still link. *)
val set_flush_domains : int -> unit
