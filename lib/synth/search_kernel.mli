(** Reusable flat-array search arena for the routing hot path.

    An arena pre-allocates every per-cell array a grid search needs
    (distance, predecessor, visited / avoided / used marks, a BFS ring
    buffer, a binary heap of packed keys) against one layout's packed
    {!Pdw_biochip.Layout.Routing} table.  Searches reuse the arrays
    without clearing: marks are epoch-stamped, so "reset" is an integer
    increment and steady-state searches allocate nothing beyond the
    final {!Pdw_geometry.Gpath.t}.

    The searches replicate the legacy [Router] implementations cell for
    cell — same neighbour enumeration order, same frontier tie-breaks,
    same strict-improvement relaxation — so the paths (and therefore
    every planner metric downstream) are identical.  [Router.Reference]
    keeps the legacy code as the oracle for the equivalence tests.

    Arenas are NOT thread-safe.  Use {!for_layout} to obtain the calling
    domain's private arena; the router's parallel flush gives each
    worker domain its own. *)

type t

(** Fresh arena for [layout]. *)
val create : Pdw_biochip.Layout.t -> t

(** The layout this arena searches. *)
val layout : t -> Pdw_biochip.Layout.t

(** The calling domain's arena for [layout] (domain-local storage,
    rebound when the domain switches to a different layout). *)
val for_layout : Pdw_biochip.Layout.t -> t

(** [shortest t ~src ~dst ()] — BFS shortest path, identical to
    [Router.shortest].  [avoid] cells must not be entered (the
    destination is exempt). *)
val shortest :
  t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** [cheapest t ~cost ~src ~dst ()] — Dijkstra minimum-cost path where
    entering cell [c] costs [1 + cost c], identical to
    [Router.cheapest].  Unlike the legacy implementation, [cost] is
    evaluated once per grid cell per call (not per relaxation); it must
    be non-negative on every cell.
    @raise Invalid_argument on a negative cost. *)
val cheapest :
  t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  cost:(Pdw_geometry.Coord.t -> int) ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** [covering t ~src ~dst ~targets ()] — greedy nearest-target covering
    path, identical to [Router.covering]. *)
val covering :
  t ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  ?cost:(Pdw_geometry.Coord.t -> int) ->
  src:Pdw_geometry.Coord.t ->
  dst:Pdw_geometry.Coord.t ->
  targets:Pdw_geometry.Coord.Set.t ->
  unit ->
  Pdw_geometry.Gpath.t option

(** {2 Prepared mode}

    The router's flush evaluates many (source, destination) port pairs
    against one fixed (avoid, cost, targets) configuration.  [prepare]
    stamps that configuration into the arena once; repeated calls with
    the same non-zero [token] are no-ops, so a worker domain touching
    many flow ports of the same flush pays for preparation once. *)

(** Stamp [avoid], the cost table ([None] = unit costs) and the target
    set into the arena under [token].  A [token] of [0] always
    re-prepares. *)
val prepare :
  t ->
  token:int ->
  ?avoid:Pdw_geometry.Coord.Set.t ->
  cost:(Pdw_geometry.Coord.t -> int) option ->
  targets:Pdw_geometry.Coord.Set.t ->
  unit ->
  unit

(** [covering_run t ~src ~dst] — the covering search over the prepared
    configuration, on row-major cell indices.  Returns the total path
    cost (sum of [1 + cost c] over every cell, source included) and
    leaves the path cells in an internal buffer, or [None] when the
    greedy chaining fails.  Only the winning pair needs the path
    materialized — via {!path_of_buf} — so losing evaluations allocate
    nothing. *)
val covering_run : t -> src:int -> dst:int -> int option

(** [covering_fan t ~src] — {!covering_run} from [src] to every
    destination at once.  It runs the greedy chain once, then one
    search from the chain's last cell that settles every reachable cell
    with the same pop order and relaxation rule.  Returns the cost of
    [src] and the chain (the same sum as {!covering_run}, minus the
    final segment), or [None] when the chaining fails.

    For a destination [dst <> src] that is not through-routable, not a
    prepared target and not in the prepared avoid set,
    [covering_run t ~src ~dst] returns this cost plus
    [fan_cost t ~dst] and the path [fan_path t ~dst], or [None]
    exactly when [fan_cost t ~dst] is [None]. *)
val covering_fan : t -> src:int -> int option

(** Cost of the final segment from the last {!covering_fan} chain to
    [dst], or [None] when [dst] was not reached.  Valid until the
    arena's next search. *)
val fan_cost : t -> dst:int -> int option

(** Materialize the last {!covering_fan} chain closed by its final
    segment to [dst]; [fan_cost t ~dst] must be [Some _]. *)
val fan_path : t -> dst:int -> Pdw_geometry.Gpath.t

(** Materialize the last successful search's path. *)
val path_of_buf : t -> Pdw_geometry.Gpath.t

(** Row-major index of a coordinate in this arena's grid. *)
val idx_of_coord : t -> Pdw_geometry.Coord.t -> int
