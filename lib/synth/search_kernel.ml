module Coord = Pdw_geometry.Coord
module Grid = Pdw_geometry.Grid
module Gpath = Pdw_geometry.Gpath
module Layout = Pdw_biochip.Layout
module Routing = Pdw_biochip.Layout.Routing

(* A reusable flat-array search arena over one layout's grid.

   Every per-cell datum lives in an [int array] indexed by the cell's
   row-major grid index, and "clearing" between searches is an epoch
   bump: a mark is valid only when its stamp equals the current epoch,
   so back-to-back searches share the arrays with zero allocation and
   zero clearing.  The BFS frontier is a ring buffer (each cell enters
   at most once, so capacity [ncells] suffices); the Dijkstra frontier
   is a monomorphic binary min-heap of packed [dist * ncells + colmajor]
   keys.

   Path identity with the legacy [Router.Reference] implementations is a
   hard requirement (the planner's metrics must stay byte-identical), so
   three orders are replicated exactly:
   - neighbour enumeration follows [Direction.all] (north, south, west,
     east), the order baked into [Layout.Routing.nbr];
   - the Dijkstra pop order is (dist, Coord.compare) — [Coord.compare]
     is x-then-y, i.e. the COLUMN-major cell index, hence the
     [colmajor] component of the heap key;
   - a cell's predecessor is only rewritten on a strict distance
     improvement, as in the legacy tables.

   Arenas are not thread-safe; use [for_layout] to get the calling
   domain's private arena. *)

type t = {
  layout : Layout.t;
  rt : Routing.t;
  dist : int array;
  prev : int array;
  visit : int array;  (* visit.(i) = epoch -> dist/prev valid *)
  avoid_mark : int array;  (* caller's avoid set, valid per avoid_epoch *)
  used_mark : int array;  (* covering chain's used cells *)
  costs : int array;  (* 1 + cost of entering each cell *)
  queue : int array;  (* BFS ring buffer; scratch stack elsewhere *)
  mutable heap : int array;
  mutable heap_size : int;
  buf : int array;  (* result path cells, in order *)
  mutable buf_len : int;
  targets_idx : int array;  (* prepared targets, Coord.compare order *)
  mutable targets_len : int;
  remaining : int array;  (* covering work list *)
  mutable chain_end : int;  (* last cell of the last [chain] *)
  mutable chain_len : int;  (* its cell count in [buf] *)
  mutable epoch : int;
  mutable avoid_epoch : int;
  mutable used_epoch : int;
  mutable token : int;  (* see [prepare] *)
}

let create layout =
  let rt = Layout.routing layout in
  let n = rt.Routing.ncells in
  {
    layout;
    rt;
    dist = Array.make n 0;
    prev = Array.make n 0;
    visit = Array.make n 0;
    avoid_mark = Array.make n 0;
    used_mark = Array.make n 0;
    costs = Array.make n 1;
    queue = Array.make n 0;
    heap = Array.make ((4 * n) + 8) 0;
    heap_size = 0;
    buf = Array.make n 0;
    buf_len = 0;
    targets_idx = Array.make n 0;
    targets_len = 0;
    remaining = Array.make n 0;
    chain_end = 0;
    chain_len = 0;
    epoch = 0;
    avoid_epoch = 0;
    used_epoch = 0;
    token = 0;
  }

let layout t = t.layout

(* One arena per domain, rebound when the domain switches layouts: the
   planner works one layout at a time, so steady-state searches never
   allocate arena storage. *)
let dls_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let for_layout layout =
  let slot = Domain.DLS.get dls_key in
  match !slot with
  | Some a when a.layout == layout -> a
  | _ ->
    let a = create layout in
    slot := Some a;
    a

(* --- index helpers ------------------------------------------------ *)

let idx_of_coord t (c : Coord.t) = Grid.index (Layout.grid t.layout) c
let coord_of_idx t i = Coord.make (i mod t.rt.Routing.width) (i / t.rt.Routing.width)

let routable t i = Bytes.unsafe_get t.rt.Routing.routable i = '\001'
let through t i = Bytes.unsafe_get t.rt.Routing.through i = '\001'

(* Column-major index: orders cells exactly as [Coord.compare]. *)
let colmajor t i =
  ((i mod t.rt.Routing.width) * t.rt.Routing.height) + (i / t.rt.Routing.width)

let manhattan_idx t a b =
  let w = t.rt.Routing.width in
  abs ((a mod w) - (b mod w)) + abs ((a / w) - (b / w))

(* --- search state preparation ------------------------------------- *)

let set_costs t cost =
  t.token <- 0;
  for i = 0 to t.rt.Routing.ncells - 1 do
    let step = 1 + cost (coord_of_idx t i) in
    if step < 1 then invalid_arg "Router.cheapest: negative cell cost";
    t.costs.(i) <- step
  done

let set_unit_costs t =
  t.token <- 0;
  Array.fill t.costs 0 (Array.length t.costs) 1

let in_bounds t c = Grid.in_bounds (Layout.grid t.layout) c

let set_avoid t avoid =
  t.token <- 0;
  t.avoid_epoch <- t.avoid_epoch + 1;
  (* Out-of-bounds avoid cells cannot affect a search; skip them. *)
  Coord.Set.iter
    (fun c ->
      if in_bounds t c then t.avoid_mark.(idx_of_coord t c) <- t.avoid_epoch)
    avoid

let set_targets t targets =
  t.token <- 0;
  t.targets_len <- 0;
  (* [Coord.Set.elements] is ascending [Coord.compare] order — the order
     the legacy greedy target scan folds in. *)
  List.iter
    (fun c ->
      t.targets_idx.(t.targets_len) <- idx_of_coord t c;
      t.targets_len <- t.targets_len + 1)
    (Coord.Set.elements targets)

let prepare t ~token ?(avoid = Coord.Set.empty) ~cost ~targets () =
  if t.token <> token || token = 0 then begin
    set_avoid t avoid;
    (match cost with None -> set_unit_costs t | Some f -> set_costs t f);
    set_targets t targets;
    t.token <- token
  end

(* --- heap of packed (dist, colmajor) keys ------------------------- *)

let heap_push t key =
  let n = Array.length t.heap in
  if t.heap_size = n then begin
    let grown = Array.make (2 * n) 0 in
    Array.blit t.heap 0 grown 0 n;
    t.heap <- grown
  end;
  let heap = t.heap in
  let i = ref t.heap_size in
  t.heap_size <- t.heap_size + 1;
  heap.(!i) <- key;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if heap.(!i) < heap.(parent) then begin
      let tmp = heap.(!i) in
      heap.(!i) <- heap.(parent);
      heap.(parent) <- tmp;
      i := parent
    end
    else continue := false
  done

let heap_pop t =
  let heap = t.heap in
  let top = heap.(0) in
  t.heap_size <- t.heap_size - 1;
  if t.heap_size > 0 then begin
    heap.(0) <- heap.(t.heap_size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.heap_size && heap.(l) < heap.(!smallest) then smallest := l;
      if r < t.heap_size && heap.(r) < heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = heap.(!i) in
        heap.(!i) <- heap.(!smallest);
        heap.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top

(* --- core searches ------------------------------------------------ *)

(* Both searches honour the avoid discipline of the legacy router: a
   cell is enterable when routable and neither avoided nor used, except
   the destination, which is always exempt; a cell is expandable when it
   is the source or through-routable. *)

let enterable t next dst =
  routable t next
  && ((t.avoid_mark.(next) <> t.avoid_epoch && t.used_mark.(next) <> t.used_epoch)
     || next = dst)

(* BFS; [true] when [dst] was reached (prev chain valid). *)
let bfs t ~src ~dst =
  if not (routable t src && routable t dst) then false
  else if src = dst then true
  else begin
    t.epoch <- t.epoch + 1;
    let e = t.epoch in
    t.visit.(src) <- e;
    t.prev.(src) <- src;
    let queue = t.queue in
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    let found = ref false in
    while (not !found) && !head < !tail do
      let here = queue.(!head) in
      incr head;
      if here = src || through t here then begin
        let base = 4 * here in
        for k = base to base + 3 do
          let next = t.rt.Routing.nbr.(k) in
          if
            (not !found)
            && next >= 0
            && t.visit.(next) <> e
            && enterable t next dst
          then begin
            t.visit.(next) <- e;
            t.prev.(next) <- here;
            if next = dst then found := true
            else begin
              queue.(!tail) <- next;
              incr tail
            end
          end
        done
      end
    done;
    !found
  end

(* As a [dijkstra] destination: none, so the search settles every
   reachable cell. *)
let no_cell = -1

(* Dijkstra over [t.costs]; [true] when [dst] was reached.  On success
   [t.dist.(dst)] is the total cost of entering every cell after [src].
   With [dst = no_cell] the search runs until the frontier empties and
   answers [false]; every cell [c] with [t.visit.(c) = t.epoch] then
   holds its final [dist] and [prev].  Those are the values an early-
   stopping search to [c] would have left: costs are positive, so a
   popped cell's entry never improves again. *)
let dijkstra t ~src ~dst =
  t.epoch <- t.epoch + 1;
  if not (routable t src && (dst = no_cell || routable t dst)) then false
  else begin
    let e = t.epoch in
    let ncells = t.rt.Routing.ncells in
    t.visit.(src) <- e;
    t.prev.(src) <- src;
    t.dist.(src) <- 0;
    t.heap_size <- 0;
    if src <> dst then heap_push t (colmajor t src);
    let finished = ref (src = dst) in
    while (not !finished) && t.heap_size > 0 do
      let key = heap_pop t in
      let cm = key mod ncells in
      let here =
        ((cm mod t.rt.Routing.height) * t.rt.Routing.width)
        + (cm / t.rt.Routing.height)
      in
      let d = key / ncells in
      if here = dst then finished := true
      else if t.dist.(here) = d then
        if here = src || through t here then begin
          let base = 4 * here in
          for k = base to base + 3 do
            let next = t.rt.Routing.nbr.(k) in
            if next >= 0 && enterable t next dst then begin
              let nd = d + t.costs.(next) in
              if t.visit.(next) <> e || nd < t.dist.(next) then begin
                t.visit.(next) <- e;
                t.dist.(next) <- nd;
                t.prev.(next) <- here;
                heap_push t ((nd * ncells) + colmajor t next)
              end
            end
          done
        end
    done;
    !finished
  end

(* --- path extraction ---------------------------------------------- *)

(* Append the prev-chain cells of the segment [src -> dst] (excluding
   [src]) to [buf] in forward order, stamping each as used.  The BFS
   ring is idle after a search, so it doubles as the reversal stack. *)
let append_segment t ~src ~dst =
  let stack = t.queue in
  let n = ref 0 in
  let c = ref dst in
  while !c <> src do
    stack.(!n) <- !c;
    incr n;
    c := t.prev.(!c)
  done;
  for i = !n - 1 downto 0 do
    let cell = stack.(i) in
    t.buf.(t.buf_len) <- cell;
    t.buf_len <- t.buf_len + 1;
    t.used_mark.(cell) <- t.used_epoch
  done

let path_of_buf t =
  let cells = ref [] in
  for i = t.buf_len - 1 downto 0 do
    cells := coord_of_idx t t.buf.(i) :: !cells
  done;
  Gpath.of_cells !cells

(* --- public single searches --------------------------------------- *)

(* The legacy searches answer [None] for out-of-bounds endpoints (they
   are simply not routable); the wrappers keep that contract before
   converting to indices. *)

let shortest t ?(avoid = Coord.Set.empty) ~src ~dst () =
  if not (in_bounds t src && in_bounds t dst) then None
  else begin
    set_avoid t avoid;
    t.used_epoch <- t.used_epoch + 1;
    let src = idx_of_coord t src and dst = idx_of_coord t dst in
    if not (bfs t ~src ~dst) then None
    else begin
      t.buf_len <- 1;
      t.buf.(0) <- src;
      if src <> dst then append_segment t ~src ~dst;
      Some (path_of_buf t)
    end
  end

let cheapest_core t ~src ~dst =
  if not (dijkstra t ~src ~dst) then None
  else begin
    t.buf_len <- 1;
    t.buf.(0) <- src;
    if src <> dst then append_segment t ~src ~dst;
    Some (path_of_buf t)
  end

let cheapest t ?(avoid = Coord.Set.empty) ~cost ~src ~dst () =
  if not (in_bounds t src && in_bounds t dst) then None
  else begin
    set_avoid t avoid;
    set_costs t cost;
    t.used_epoch <- t.used_epoch + 1;
    cheapest_core t ~src:(idx_of_coord t src) ~dst:(idx_of_coord t dst)
  end

(* --- covering ------------------------------------------------------ *)

(* Greedy nearest-target chaining, exactly as the legacy
   [Router.covering]: the next target is the remaining one nearest by
   manhattan distance (ties to the smallest in [Coord.compare] order),
   each segment is a cheapest path that must not revisit cells used by
   earlier segments, and targets swept up by a segment en passant are
   dropped from the work list.  [chain] runs every segment but the
   last — the work list is the prepared targets minus [src] and [dst] —
   and answers the summed segment costs with the chain's cells in [buf]
   and its last cell in [chain_end], or [None] when a segment fails. *)
let chain t ~src ~dst =
  t.used_epoch <- t.used_epoch + 1;
  let remaining = t.remaining in
  let rem_len = ref 0 in
  for i = 0 to t.targets_len - 1 do
    let target = t.targets_idx.(i) in
    if target <> src && target <> dst then begin
      remaining.(!rem_len) <- target;
      incr rem_len
    end
  done;
  t.buf_len <- 1;
  t.buf.(0) <- src;
  t.used_mark.(src) <- t.used_epoch;
  let here = ref src in
  let total = ref 0 in
  let dead = ref false in
  while (not !dead) && !rem_len > 0 do
    (* Nearest remaining target; the scan order is ascending
       [Coord.compare], and only a strictly smaller distance replaces
       the incumbent, matching the legacy fold. *)
    let best = ref remaining.(0) in
    let best_d = ref (manhattan_idx t !here remaining.(0)) in
    for i = 1 to !rem_len - 1 do
      let d = manhattan_idx t !here remaining.(i) in
      if d < !best_d then begin
        best := remaining.(i);
        best_d := d
      end
    done;
    let target = !best in
    if dijkstra t ~src:!here ~dst:target then begin
      append_segment t ~src:!here ~dst:target;
      total := !total + t.dist.(target);
      here := target;
      (* Drop targets the segment swept up (they are now used). *)
      let w = ref 0 in
      for i = 0 to !rem_len - 1 do
        if t.used_mark.(remaining.(i)) <> t.used_epoch then begin
          remaining.(!w) <- remaining.(i);
          incr w
        end
      done;
      rem_len := !w
    end
    else dead := true
  done;
  t.chain_end <- !here;
  t.chain_len <- t.buf_len;
  if !dead then None else Some !total

(* The whole covering path: the chain, then its final segment to [dst].
   On success the path sits in [buf] and the return value is its total
   cost (Σ 1 + cost over every cell, source included). *)
let covering_run t ~src ~dst =
  match chain t ~src ~dst with
  | None -> None
  | Some total ->
    let here = t.chain_end in
    if not (dijkstra t ~src:here ~dst) then None
    else begin
      append_segment t ~src:here ~dst;
      Some (total + t.dist.(dst) + t.costs.(src))
    end

(* The chain never reads [dst] once [dst] is outside the work list: each
   segment ends at a target, and a non-through cell (a port) is a leaf
   of every segment's search, never on its path.  So one chain per
   source, followed by one search that settles every cell, prices the
   final segment to every such destination at once. *)
let covering_fan t ~src =
  match chain t ~src ~dst:no_cell with
  | None -> None
  | Some total ->
    ignore (dijkstra t ~src:t.chain_end ~dst:no_cell);
    Some (total + t.costs.(src))

let fan_cost t ~dst =
  if t.visit.(dst) = t.epoch then Some t.dist.(dst) else None

let fan_path t ~dst =
  t.buf_len <- t.chain_len;
  append_segment t ~src:t.chain_end ~dst;
  path_of_buf t

let covering t ?(avoid = Coord.Set.empty) ?cost ~src ~dst ~targets () =
  (* An out-of-bounds target (other than the exempt endpoints) can never
     be visited, so the legacy covering inevitably fails on it. *)
  let oob_target =
    Coord.Set.exists
      (fun c -> not (in_bounds t c))
      (Coord.Set.remove src (Coord.Set.remove dst targets))
  in
  if oob_target || not (in_bounds t src && in_bounds t dst) then None
  else begin
    set_avoid t avoid;
    (match cost with None -> set_unit_costs t | Some f -> set_costs t f);
    set_targets t targets;
    let src = idx_of_coord t src and dst = idx_of_coord t dst in
    match covering_run t ~src ~dst with
    | None -> None
    | Some _ -> Some (path_of_buf t)
  end
