(* Per-layer figures from the traced run.  Spans come from two places:
   the benchmark's own spans around each public call ([Pipeline],
   [Loadgen]) and the program's existing spans inside the layers.  A
   span's self time is its duration minus the time covered by its
   direct children; the direct parent of a span is the innermost span
   on the same domain whose interval encloses it and whose path is the
   span's path minus its last element. *)

module Trace = Pdw_obs.Trace

type agg = { mutable n : int; mutable total_ms : float; mutable self_ms : float }

(* [names]: by span name.  [in_layer]: by benchmark layer span and
   name, for a span the program calls from more than one layer
   ([router.flush] runs in synthesis and in PDW's wash-path search). *)
type t = { names : (string, agg) Hashtbl.t; in_layer : (string * string, agg) Hashtbl.t }

(* The benchmark's spans around each planner-layer call. *)
let layer_spans = [ "synthesis"; "pdw"; "json_export"; "dawo"; "validate" ]

let self_times (events : Trace.event list) =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace by_tid e.tid (e :: Option.value (Hashtbl.find_opt by_tid e.tid) ~default:[]))
    events;
  Hashtbl.fold
    (fun _ evs acc ->
      let evs =
        List.sort
          (fun (a : Trace.event) (b : Trace.event) ->
            match Float.compare a.ts b.ts with 0 -> Float.compare b.dur a.dur | c -> c)
          evs
        |> List.map (fun e -> (e, ref 0.0))
      in
      (* [stack]: open ancestors, innermost first, with their child time. *)
      let stack = ref [] in
      List.iter
        (fun (((e : Trace.event), _) as cell) ->
          let encloses ((p : Trace.event), _) = p.ts +. p.dur >= e.ts +. e.dur -. 1e-9 in
          let rec unwind = function
            | top :: rest when not (encloses top) -> unwind rest
            | s -> s
          in
          stack := unwind !stack;
          (match !stack with
           | ((p : Trace.event), child) :: _
             when List.length p.path + 1 = List.length e.path ->
             child := !child +. e.dur
           | _ -> ());
          stack := cell :: !stack)
        evs;
      List.map (fun ((e : Trace.event), child) -> (e, e.dur -. !child)) evs @ acc)
    by_tid []

(* Aggregate by span name, keeping only spans whose root is one of
   [roots]. *)
let aggregate ~roots events =
  let t = { names = Hashtbl.create 32; in_layer = Hashtbl.create 32 } in
  let add tbl key (e : Trace.event) self =
    let a =
      match Hashtbl.find_opt tbl key with
      | Some a -> a
      | None ->
        let a = { n = 0; total_ms = 0.0; self_ms = 0.0 } in
        Hashtbl.replace tbl key a;
        a
    in
    a.n <- a.n + 1;
    a.total_ms <- a.total_ms +. (e.dur *. 1000.0);
    a.self_ms <- a.self_ms +. (self *. 1000.0)
  in
  List.iter
    (fun ((e : Trace.event), self) ->
      match e.path with
      | root :: _ when List.mem root roots ->
        add t.names e.name e self;
        Option.iter
          (fun layer -> add t.in_layer (layer, e.name) e self)
          (List.find_opt (fun s -> List.mem s layer_spans) e.path)
      | _ -> ())
    (self_times events);
  t

let find t name = Hashtbl.find_opt t.names name

(* Mean inclusive time of one call of a benchmark span. *)
let ms_per_call t name =
  match find t name with Some a when a.n > 0 -> a.total_ms /. float_of_int a.n | _ -> 0.0

(* Self time of a span name per plan. *)
let self_per_plan t name ~plans =
  match find t name with Some a when plans > 0 -> a.self_ms /. float_of_int plans | _ -> 0.0

(* Self time per plan of [name] where it runs inside [layer]'s span. *)
let self_in_layer t ~layer name ~plans =
  match Hashtbl.find_opt t.in_layer (layer, name) with
  | Some a when plans > 0 -> a.self_ms /. float_of_int plans
  | _ -> 0.0

let count t name = match find t name with Some a -> a.n | None -> 0

(* Sum of every span's self time under [roots], per plan: the figure
   the sum check holds against the measured end-to-end latency. *)
let self_sum t ~plans =
  if plans = 0 then 0.0
  else Hashtbl.fold (fun _ a acc -> acc +. a.self_ms) t.names 0.0 /. float_of_int plans

(* The timed-path spans of a plan and of a served request. *)
let plan_roots = [ "bench.plan"; "synthesis"; "pdw"; "json_export" ]
let request_roots = [ "client.request" ]
let check_roots = [ "dawo"; "validate" ]
