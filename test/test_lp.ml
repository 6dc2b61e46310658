(* Unit and property tests for the pdw_lp MILP substrate: simplex against
   hand-solved LPs, ILP against exhaustive enumeration, model-layer
   helpers, and lazy cuts. *)

module Lin_expr = Pdw_lp.Lin_expr
module Lp_problem = Pdw_lp.Lp_problem
module Simplex = Pdw_lp.Simplex
module Ilp = Pdw_lp.Ilp
module Model = Pdw_lp.Model

let bounds ?(lb = 0.0) ?ub () : Lp_problem.bounds =
  { lower = lb; upper = ub }

let le expr rhs : Lp_problem.constr = { expr; relation = Le; rhs }
let ge expr rhs : Lp_problem.constr = { expr; relation = Ge; rhs }
let eq expr rhs : Lp_problem.constr = { expr; relation = Eq; rhs }

let expr terms =
  List.fold_left
    (fun acc (c, v) -> Lin_expr.add_term acc c v)
    Lin_expr.zero terms

let check_optimal ?(eps = 1e-6) what expected result =
  match result with
  | Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float eps)) what expected objective
  | Simplex.Infeasible -> Alcotest.failf "%s: unexpectedly infeasible" what
  | Simplex.Unbounded -> Alcotest.failf "%s: unexpectedly unbounded" what

(* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj 36
   (classic Dantzig example), minimized as -36. *)
let test_simplex_textbook () =
  let p =
    Lp_problem.make ~num_vars:2
      ~objective:(expr [ (-3.0, 0); (-5.0, 1) ])
      ~constraints:
        [
          le (expr [ (1.0, 0) ]) 4.0;
          le (expr [ (2.0, 1) ]) 12.0;
          le (expr [ (3.0, 0); (2.0, 1) ]) 18.0;
        ]
      ~var_bounds:[| bounds (); bounds () |]
  in
  match Simplex.solve p with
  | Simplex.Optimal { objective; solution } ->
    Alcotest.(check (float 1e-6)) "objective" (-36.0) objective;
    Alcotest.(check (float 1e-6)) "x" 2.0 solution.(0);
    Alcotest.(check (float 1e-6)) "y" 6.0 solution.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_equality () =
  (* min x + y st x + y = 5, x - y >= 1 -> obj 5 *)
  let p =
    Lp_problem.make ~num_vars:2
      ~objective:(expr [ (1.0, 0); (1.0, 1) ])
      ~constraints:
        [ eq (expr [ (1.0, 0); (1.0, 1) ]) 5.0;
          ge (expr [ (1.0, 0); (-1.0, 1) ]) 1.0 ]
      ~var_bounds:[| bounds (); bounds () |]
  in
  check_optimal "equality-constrained" 5.0 (Simplex.solve p)

let test_simplex_infeasible () =
  let p =
    Lp_problem.make ~num_vars:1
      ~objective:(expr [ (1.0, 0) ])
      ~constraints:[ ge (expr [ (1.0, 0) ]) 3.0; le (expr [ (1.0, 0) ]) 2.0 ]
      ~var_bounds:[| bounds () |]
  in
  match Simplex.solve p with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  let p =
    Lp_problem.make ~num_vars:1
      ~objective:(expr [ (-1.0, 0) ])
      ~constraints:[ ge (expr [ (1.0, 0) ]) 1.0 ]
      ~var_bounds:[| bounds () |]
  in
  match Simplex.solve p with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_var_bounds () =
  (* min -x with 1 <= x <= 7 -> x = 7 *)
  let p =
    Lp_problem.make ~num_vars:1
      ~objective:(expr [ (-1.0, 0) ])
      ~constraints:[ le (expr [ (1.0, 0) ]) 100.0 ]
      ~var_bounds:[| bounds ~lb:1.0 ~ub:7.0 () |]
  in
  match Simplex.solve p with
  | Simplex.Optimal { objective; solution } ->
    Alcotest.(check (float 1e-6)) "objective" (-7.0) objective;
    Alcotest.(check (float 1e-6)) "x" 7.0 solution.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_negative_lower_bound () =
  (* min x with -5 <= x -> x = -5 *)
  let p =
    Lp_problem.make ~num_vars:1
      ~objective:(expr [ (1.0, 0) ])
      ~constraints:[ le (expr [ (1.0, 0) ]) 10.0 ]
      ~var_bounds:[| bounds ~lb:(-5.0) () |]
  in
  check_optimal "negative lower bound" (-5.0) (Simplex.solve p)

let test_simplex_no_constraints () =
  let p =
    Lp_problem.make ~num_vars:2
      ~objective:(expr [ (1.0, 0); (-2.0, 1) ])
      ~constraints:[]
      ~var_bounds:[| bounds ~lb:3.0 (); bounds ~ub:4.0 () |]
  in
  check_optimal "bound-only problem" (3.0 -. 8.0) (Simplex.solve p)

let test_simplex_degenerate () =
  (* A degenerate LP (redundant constraints through the optimum); Bland's
     rule must still terminate. min -x - y st x + y <= 1, x <= 1, y <= 1,
     2x + 2y <= 2 -> obj -1. *)
  let p =
    Lp_problem.make ~num_vars:2
      ~objective:(expr [ (-1.0, 0); (-1.0, 1) ])
      ~constraints:
        [
          le (expr [ (1.0, 0); (1.0, 1) ]) 1.0;
          le (expr [ (1.0, 0) ]) 1.0;
          le (expr [ (1.0, 1) ]) 1.0;
          le (expr [ (2.0, 0); (2.0, 1) ]) 2.0;
        ]
      ~var_bounds:[| bounds (); bounds () |]
  in
  check_optimal "degenerate" (-1.0) (Simplex.solve p)

let test_ilp_knapsack () =
  (* max 10a + 6b + 4c st 1a + 1b + 1c <= 2 (0/1) -> a + b = 16 *)
  let p =
    Lp_problem.make ~num_vars:3
      ~objective:(expr [ (-10.0, 0); (-6.0, 1); (-4.0, 2) ])
      ~constraints:[ le (expr [ (1.0, 0); (1.0, 1); (1.0, 2) ]) 2.0 ]
      ~var_bounds:[| bounds ~ub:1.0 (); bounds ~ub:1.0 (); bounds ~ub:1.0 () |]
  in
  match Ilp.solve ~integer:[| true; true; true |] p with
  | Ilp.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "knapsack" (-16.0) objective
  | r -> Alcotest.failf "expected optimal, got %a" Ilp.pp_result r

let test_ilp_fractional_relaxation () =
  (* max x + y st 2x + 2y <= 3, 0/1 vars.  LP relaxation gives 1.5; the
     integer optimum is 1. *)
  let p =
    Lp_problem.make ~num_vars:2
      ~objective:(expr [ (-1.0, 0); (-1.0, 1) ])
      ~constraints:[ le (expr [ (2.0, 0); (2.0, 1) ]) 3.0 ]
      ~var_bounds:[| bounds ~ub:1.0 (); bounds ~ub:1.0 () |]
  in
  match Ilp.solve ~integer:[| true; true |] p with
  | Ilp.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "rounded down" (-1.0) objective
  | r -> Alcotest.failf "expected optimal, got %a" Ilp.pp_result r

let test_ilp_infeasible () =
  let p =
    Lp_problem.make ~num_vars:2
      ~objective:(expr [ (1.0, 0) ])
      ~constraints:
        [ eq (expr [ (2.0, 0); (2.0, 1) ]) 3.0 ]
        (* parity argument: 2(x+y) = 3 has no integer solution *)
      ~var_bounds:[| bounds ~ub:1.0 (); bounds ~ub:1.0 () |]
  in
  match Ilp.solve ~integer:[| true; true |] p with
  | Ilp.Infeasible -> ()
  | r -> Alcotest.failf "expected infeasible, got %a" Ilp.pp_result r

let test_ilp_lazy_cuts () =
  (* min -x - y, x,y binary; lazy cut forbids x = y = 1, so the optimum
     under cuts is -1. *)
  let p =
    Lp_problem.make ~num_vars:2
      ~objective:(expr [ (-1.0, 0); (-1.0, 1) ])
      ~constraints:[]
      ~var_bounds:[| bounds ~ub:1.0 (); bounds ~ub:1.0 () |]
  in
  let cuts sol =
    if sol.(0) > 0.5 && sol.(1) > 0.5 then
      [ le (expr [ (1.0, 0); (1.0, 1) ]) 1.0 ]
    else []
  in
  match Ilp.solve ~lazy_cuts:cuts ~integer:[| true; true |] p with
  | Ilp.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "cut optimum" (-1.0) objective
  | r -> Alcotest.failf "expected optimal, got %a" Ilp.pp_result r

let test_model_disjunction () =
  (* Two unit-duration tasks sharing a resource: starts s0, s1 >= 0, the
     disjunction forces them apart, makespan 2 at minimum. *)
  let m = Model.create () in
  let s0 = Model.continuous m "s0" ~lb:0.0 () in
  let s1 = Model.continuous m "s1" ~lb:0.0 () in
  let makespan = Model.continuous m "makespan" ~lb:0.0 () in
  let order = Model.binary m "order" in
  let open Model in
  let e0 = v s0 +: const 1.0 and e1 = v s1 +: const 1.0 in
  add_disjunction m ~order ~a_end:e0 ~b_start:(v s1) ~a_start:(v s0)
    ~b_end:e1;
  add_ge m (v makespan) e0;
  add_ge m (v makespan) e1;
  set_objective m (v makespan);
  match Model.solve m with
  | Ok sol ->
    Alcotest.(check (float 1e-6)) "makespan" 2.0
      (Model.objective_value sol);
    Alcotest.(check bool) "not best-effort" false (Model.best_effort sol)
  | Error e -> Alcotest.failf "unexpected: %s" e

let test_model_implies () =
  (* guard = 1 forces x >= 5; minimizing x + 10*(1-guard) makes the solver
     pick guard freely; check both paths. *)
  let m = Model.create () in
  let x = Model.continuous m "x" ~lb:0.0 ~ub:10.0 () in
  let g = Model.binary m "g" in
  let open Model in
  add_implies_ge m ~guard:(v g) (v x) (const 5.0);
  add_eq m (v g) (const 1.0);
  set_objective m (v x);
  match Model.solve m with
  | Ok sol -> Alcotest.(check (float 1e-6)) "forced" 5.0 (Model.value sol x)
  | Error e -> Alcotest.failf "unexpected: %s" e

let test_brute_matches_example () =
  let p =
    Lp_problem.make ~num_vars:3
      ~objective:(expr [ (-10.0, 0); (-6.0, 1); (-4.0, 2) ])
      ~constraints:[ le (expr [ (1.0, 0); (1.0, 1); (1.0, 2) ]) 2.0 ]
      ~var_bounds:[| bounds ~ub:1.0 (); bounds ~ub:1.0 (); bounds ~ub:1.0 () |]
  in
  match Brute.solve_binary p with
  | Some (obj, _) -> Alcotest.(check (float 1e-9)) "brute" (-16.0) obj
  | None -> Alcotest.fail "expected a solution"

(* Random small 0/1 ILPs: branch and bound must match brute force. *)
let gen_binary_ilp =
  QCheck2.Gen.(
    let* nv = int_range 2 6 in
    let* nc = int_range 1 5 in
    let gen_coeff = map float_of_int (int_range (-5) 5) in
    let gen_row = list_size (return nv) gen_coeff in
    let* obj = gen_row in
    let* rows = list_size (return nc) gen_row in
    let* rhss =
      list_size (return nc) (map float_of_int (int_range (-3) 8))
    in
    let* rels = list_size (return nc) (int_range 0 2) in
    return (nv, obj, rows, rhss, rels))

let build_binary_ilp (nv, obj, rows, rhss, rels) =
  let to_expr coeffs =
    List.fold_left
      (fun (i, acc) c -> (i + 1, Lin_expr.add_term acc c i))
      (0, Lin_expr.zero) coeffs
    |> snd
  in
  let constraints =
    List.map2
      (fun (row, rhs) rel ->
        let expr = to_expr row in
        match rel with
        | 0 -> le expr rhs
        | 1 -> ge expr rhs
        | _ -> eq expr rhs)
      (List.combine rows rhss) rels
  in
  Lp_problem.make ~num_vars:nv ~objective:(to_expr obj)
    ~constraints
    ~var_bounds:(Array.init nv (fun _ -> bounds ~ub:1.0 ()))

let prop_ilp_matches_brute =
  QCheck2.Test.make ~name:"branch-and-bound matches exhaustive enumeration"
    ~count:300 gen_binary_ilp (fun spec ->
      let p = build_binary_ilp spec in
      let brute = Brute.solve_binary p in
      let ilp = Ilp.solve ~integer:(Array.make p.num_vars true) p in
      match (brute, ilp) with
      | None, Ilp.Infeasible -> true
      | Some (b, _), Ilp.Optimal { objective; _ } ->
        abs_float (b -. objective) < 1e-6
      | None, _ | Some _, _ -> false)

let prop_simplex_below_ilp =
  QCheck2.Test.make
    ~name:"LP relaxation lower-bounds the integer optimum" ~count:300
    gen_binary_ilp (fun spec ->
      let p = build_binary_ilp spec in
      match (Simplex.solve p, Brute.solve_binary p) with
      | Simplex.Optimal { objective = lp; _ }, Some (int_obj, _) ->
        lp <= int_obj +. 1e-6
      | Simplex.Infeasible, None -> true
      | Simplex.Infeasible, Some _ -> false (* LP infeasible but ILP not *)
      | Simplex.Optimal _, None -> true (* relaxation feasible, ILP not *)
      | Simplex.Unbounded, _ -> true (* bounded vars: cannot happen *))

let prop_simplex_solution_feasible =
  QCheck2.Test.make ~name:"simplex solutions satisfy their problem"
    ~count:300 gen_binary_ilp (fun spec ->
      let p = build_binary_ilp spec in
      match Simplex.solve p with
      | Simplex.Optimal { solution; _ } -> Lp_problem.satisfies p solution
      | Simplex.Infeasible | Simplex.Unbounded -> true)

let test_simplex_constant_objective () =
  (* Feasibility-only problem: constant objective, any feasible point. *)
  let p =
    Lp_problem.make ~num_vars:1
      ~objective:(Lin_expr.constant 7.0)
      ~constraints:[ ge (expr [ (1.0, 0) ]) 2.0; le (expr [ (1.0, 0) ]) 5.0 ]
      ~var_bounds:[| bounds () |]
  in
  match Simplex.solve p with
  | Simplex.Optimal { objective; solution } ->
    Alcotest.(check (float 1e-9)) "constant objective" 7.0 objective;
    Alcotest.(check bool) "feasible point" true
      (solution.(0) >= 2.0 -. 1e-9 && solution.(0) <= 5.0 +. 1e-9)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_redundant_equalities () =
  (* Two identical equalities: one row is redundant after phase 1. *)
  let p =
    Lp_problem.make ~num_vars:2
      ~objective:(expr [ (1.0, 0); (2.0, 1) ])
      ~constraints:
        [ eq (expr [ (1.0, 0); (1.0, 1) ]) 4.0;
          eq (expr [ (2.0, 0); (2.0, 1) ]) 8.0 ]
      ~var_bounds:[| bounds (); bounds () |]
  in
  check_optimal "redundant equalities" 4.0 (Simplex.solve p)

(* --- presolve --- *)

module Presolve = Pdw_lp.Presolve

let test_presolve_singleton_rows () =
  (* min -x st x <= 4 (singleton), x + y <= 10 -> presolve folds the
     singleton into x's bound and keeps one row. *)
  let p =
    Lp_problem.make ~num_vars:2
      ~objective:(expr [ (-1.0, 0) ])
      ~constraints:
        [ le (expr [ (1.0, 0) ]) 4.0;
          le (expr [ (1.0, 0); (1.0, 1) ]) 10.0 ]
      ~var_bounds:[| bounds (); bounds () |]
  in
  match Presolve.run p with
  | Presolve.Infeasible -> Alcotest.fail "not infeasible"
  | Presolve.Reduced q ->
    Alcotest.(check int) "one row removed" 1
      (Presolve.removed_constraints p q);
    (match (Simplex.solve p, Simplex.solve q) with
    | Simplex.Optimal { objective = a; _ }, Simplex.Optimal { objective = b; _ }
      ->
      Alcotest.(check (float 1e-6)) "same optimum" a b
    | _ -> Alcotest.fail "both should be optimal")

let test_presolve_detects_crossed_bounds () =
  let p =
    Lp_problem.make ~num_vars:1
      ~objective:(expr [ (1.0, 0) ])
      ~constraints:[ ge (expr [ (1.0, 0) ]) 5.0; le (expr [ (1.0, 0) ]) 2.0 ]
      ~var_bounds:[| bounds () |]
  in
  match Presolve.run p with
  | Presolve.Infeasible -> ()
  | Presolve.Reduced _ -> Alcotest.fail "expected infeasible"

let test_presolve_substitutes_fixed () =
  (* x fixed to 3 by an equality; the other row should lose its x term. *)
  let p =
    Lp_problem.make ~num_vars:2
      ~objective:(expr [ (1.0, 1) ])
      ~constraints:
        [ eq (expr [ (1.0, 0) ]) 3.0;
          ge (expr [ (1.0, 0); (1.0, 1) ]) 5.0 ]
      ~var_bounds:[| bounds (); bounds () |]
  in
  match Presolve.run p with
  | Presolve.Infeasible -> Alcotest.fail "feasible"
  | Presolve.Reduced q -> (
    match Simplex.solve q with
    | Simplex.Optimal { objective; solution } ->
      Alcotest.(check (float 1e-6)) "y = 2" 2.0 objective;
      Alcotest.(check (float 1e-6)) "x fixed" 3.0 solution.(0)
    | _ -> Alcotest.fail "expected optimal")

let prop_presolve_preserves_optimum =
  QCheck2.Test.make
    ~name:"presolve preserves feasibility and the optimal value" ~count:300
    gen_binary_ilp (fun spec ->
      let p = build_binary_ilp spec in
      match Presolve.run p with
      | Presolve.Infeasible -> Simplex.solve p = Simplex.Infeasible
      | Presolve.Reduced q -> (
        match (Simplex.solve p, Simplex.solve q) with
        | ( Simplex.Optimal { objective = a; _ },
            Simplex.Optimal { objective = b; _ } ) ->
          abs_float (a -. b) < 1e-6
        | Simplex.Infeasible, Simplex.Infeasible -> true
        | Simplex.Unbounded, Simplex.Unbounded -> true
        | _, _ -> false))

(* --- frontier heap --- *)

module Heap = Pdw_lp.Heap

let test_heap_pops_ascending () =
  let h = Heap.create () in
  let priorities = [ 5.0; 1.0; 4.0; -2.0; 3.0; 0.0; 4.0; 1.0 ] in
  List.iteri (fun i p -> Heap.add h ~priority:p i) priorities;
  Alcotest.(check int) "length" (List.length priorities) (Heap.length h);
  Alcotest.(check (option (float 0.0))) "min priority" (Some (-2.0))
    (Heap.min_priority h);
  let rec drain last acc =
    match Heap.min_priority h with
    | None -> List.rev acc
    | Some p ->
      Alcotest.(check bool) "ascending" true (p >= last);
      let v = Option.get (Heap.pop h) in
      drain p (v :: acc)
  in
  let order = drain neg_infinity [] in
  Alcotest.(check int) "all popped" (List.length priorities)
    (List.length order);
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_fifo_on_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.add h ~priority:7.0 v) [ 1; 2; 3; 4; 5 ];
  let popped = List.init 5 (fun _ -> Option.get (Heap.pop h)) in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] popped

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.add h ~priority:2.0 "b";
  Heap.add h ~priority:1.0 "a";
  Alcotest.(check (option string)) "pop a" (Some "a") (Heap.pop h);
  Heap.add h ~priority:0.5 "c";
  Heap.add h ~priority:3.0 "d";
  Alcotest.(check (option string)) "pop c" (Some "c") (Heap.pop h);
  Alcotest.(check (option string)) "pop b" (Some "b") (Heap.pop h);
  Alcotest.(check (option string)) "pop d" (Some "d") (Heap.pop h);
  Alcotest.(check (option string)) "exhausted" None (Heap.pop h)

(* --- warm starts --- *)

(* Branching tightens one variable's bounds; the parent's optimal basis
   fed to the dual simplex must land on the same optimum (status and
   objective) the cold two-phase solve finds. *)
let prop_warm_start_matches_cold =
  QCheck2.Test.make
    ~name:"warm-started child solve matches cold solve" ~count:300
    QCheck2.Gen.(pair gen_binary_ilp (pair (int_range 0 5) bool))
    (fun (spec, (branch_var, branch_up)) ->
      let p = build_binary_ilp spec in
      match Simplex.solve_keep_basis p with
      | Simplex.Optimal _, Some basis ->
        let v = branch_var mod p.num_vars in
        let child_bounds = Array.copy p.var_bounds in
        child_bounds.(v) <-
          (if branch_up then { child_bounds.(v) with lower = 1.0 }
           else { child_bounds.(v) with upper = Some 0.0 });
        let child = { p with var_bounds = child_bounds } in
        let warm, _ = Simplex.solve_from_basis ~basis child in
        let cold = Simplex.solve child in
        (match (warm, cold) with
        | Simplex.Optimal { objective = a; _ },
          Simplex.Optimal { objective = b; _ } ->
          abs_float (a -. b) < 1e-6
        | Simplex.Infeasible, Simplex.Infeasible -> true
        | Simplex.Unbounded, Simplex.Unbounded -> true
        | _, _ -> false)
      | (Simplex.Optimal _ | Simplex.Infeasible | Simplex.Unbounded), _ ->
        true)

(* --- flat-arena solver vs the reference implementation --- *)

module Solver_arena = Pdw_lp.Solver_arena

(* The bounded-variable flat-arena solver and the retained [Reference]
   implementation (explicit upper-bound rows, per-call tableaux) must
   agree on status and objective for every LP.  Solutions are not
   compared: alternate optima are legitimate, and the two pivot orders
   routinely land on different vertices of the same optimal face. *)
let same_status_and_objective a b =
  match (a, b) with
  | Simplex.Optimal { objective = x; _ }, Simplex.Optimal { objective = y; _ }
    ->
    abs_float (x -. y) < 1e-6
  | Simplex.Infeasible, Simplex.Infeasible -> true
  | Simplex.Unbounded, Simplex.Unbounded -> true
  | _, _ -> false

let prop_production_matches_reference =
  QCheck2.Test.make
    ~name:"flat-arena simplex matches the reference solver (cold)" ~count:300
    gen_binary_ilp (fun spec ->
      let p = build_binary_ilp spec in
      let prod = Simplex.solve p in
      let refr = Simplex.Reference.solve p in
      same_status_and_objective prod refr
      (* Tiny instances also admit exhaustive enumeration: the shared LP
         optimum must lower-bound the brute-force integer optimum. *)
      &&
      match (prod, Brute.solve_binary p) with
      | Simplex.Optimal { objective = lp; _ }, Some (int_obj, _) ->
        lp <= int_obj +. 1e-6
      | _, _ -> true)

(* Warm-started equivalence.  Basis snapshots are not cross-compatible
   ([At_upper] vs [Upper_slack] triggers the cold fallback by design),
   so each solver warm-starts from its OWN parent basis; the dual
   simplex of both must land on the same objective. *)
let prop_warm_production_matches_reference =
  QCheck2.Test.make
    ~name:"flat-arena simplex matches the reference solver (warm)" ~count:300
    QCheck2.Gen.(pair gen_binary_ilp (pair (int_range 0 5) bool))
    (fun (spec, (branch_var, branch_up)) ->
      let p = build_binary_ilp spec in
      match (Simplex.solve_keep_basis p, Simplex.Reference.solve_keep_basis p)
      with
      | (Simplex.Optimal _, Some basis_p), (Simplex.Optimal _, Some basis_r)
        ->
        let v = branch_var mod p.num_vars in
        let child_bounds = Array.copy p.var_bounds in
        child_bounds.(v) <-
          (if branch_up then { child_bounds.(v) with lower = 1.0 }
           else { child_bounds.(v) with upper = Some 0.0 });
        let child = { p with var_bounds = child_bounds } in
        let warm_p, _ = Simplex.solve_from_basis ~basis:basis_p child in
        let warm_r, _ =
          Simplex.Reference.solve_from_basis ~basis:basis_r child
        in
        same_status_and_objective warm_p warm_r
      | _, _ -> true)

(* Epoch-stamped scratch reuse: two consecutive solves of the same
   packed problem through one arena must be bit-identical — the second
   solve runs entirely on stale marks invalidated only by the epoch
   bump, so any missed invalidation shows up as a diverging result. *)
let test_arena_epoch_reuse () =
  let p =
    Lp_problem.make ~num_vars:3
      ~objective:(expr [ (-10.0, 0); (-6.0, 1); (-4.0, 2) ])
      ~constraints:
        [
          le (expr [ (1.0, 0); (1.0, 1); (1.0, 2) ]) 2.0;
          ge (expr [ (1.0, 0); (1.0, 2) ]) 1.0;
          eq (expr [ (1.0, 1); (1.0, 2) ]) 1.0;
        ]
      ~var_bounds:[| bounds ~ub:1.0 (); bounds ~ub:1.0 (); bounds ~ub:1.0 () |]
  in
  let arena = Solver_arena.create () in
  let pk = Lp_problem.compile p in
  let solve () = Simplex.solve_packed ~arena ~want_basis:true pk p.var_bounds in
  let r1, b1 = solve () in
  let r2, b2 = solve () in
  (match (r1, r2) with
  | Simplex.Optimal { objective = o1; solution = s1 },
    Simplex.Optimal { objective = o2; solution = s2 } ->
    Alcotest.(check (float 0.0)) "same objective" o1 o2;
    Alcotest.(check (array (float 0.0))) "same solution" s1 s2
  | _, _ -> Alcotest.fail "expected optimal results from both solves");
  Alcotest.(check bool) "same basis snapshot" true (b1 = b2)

(* --- branching regression: near-integral relaxation values --- *)

let test_branching_near_integral () =
  (* The relaxation optimum x = 2.99998 is fractional (beyond the 1e-6
     integrality tolerance) but rounds to 3; branching must still use
     floor 2 / ceil 3 of the unsnapped value, giving the true integer
     optimum x = 2. *)
  let p =
    Lp_problem.make ~num_vars:1
      ~objective:(expr [ (-1.0, 0) ])
      ~constraints:[ le (expr [ (1.0, 0) ]) 2.99998 ]
      ~var_bounds:[| bounds ~ub:10.0 () |]
  in
  (match Ilp.solve ~integer:[| true |] p with
  | Ilp.Optimal { objective; solution } ->
    Alcotest.(check (float 1e-6)) "floor branch wins" (-2.0) objective;
    Alcotest.(check (float 1e-6)) "x = 2" 2.0 solution.(0)
  | r -> Alcotest.failf "expected optimal, got %a" Ilp.pp_result r);
  (* Mirror case just above an integer: x >= 3.00002 forces x = 4. *)
  let q =
    Lp_problem.make ~num_vars:1
      ~objective:(expr [ (1.0, 0) ])
      ~constraints:[ ge (expr [ (1.0, 0) ]) 3.00002 ]
      ~var_bounds:[| bounds ~ub:10.0 () |]
  in
  match Ilp.solve ~integer:[| true |] q with
  | Ilp.Optimal { objective; solution } ->
    Alcotest.(check (float 1e-6)) "ceil branch wins" 4.0 objective;
    Alcotest.(check (float 1e-6)) "x = 4" 4.0 solution.(0)
  | r -> Alcotest.failf "expected optimal, got %a" Ilp.pp_result r

let test_lin_expr_algebra () =
  let e = Lin_expr.add (Lin_expr.term 2.0 0) (Lin_expr.term 3.0 1) in
  let e = Lin_expr.add e (Lin_expr.constant 4.0) in
  Alcotest.(check (float 1e-9)) "eval" (2.0 +. 6.0 +. 4.0)
    (Lin_expr.eval e (fun v -> if v = 0 then 1.0 else 2.0));
  let cancelled = Lin_expr.sub e e in
  Alcotest.(check int) "cancellation drops terms" 0
    (List.length (Lin_expr.terms cancelled));
  Alcotest.(check (float 1e-9)) "coeff" 3.0 (Lin_expr.coeff e 1);
  Alcotest.(check (float 1e-9)) "missing coeff" 0.0 (Lin_expr.coeff e 9)

let () =
  Alcotest.run "pdw_lp"
    [
      ( "lin_expr",
        [ Alcotest.test_case "algebra" `Quick test_lin_expr_algebra ] );
      ( "simplex",
        [
          Alcotest.test_case "textbook" `Quick test_simplex_textbook;
          Alcotest.test_case "equality" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "variable bounds" `Quick test_simplex_var_bounds;
          Alcotest.test_case "negative lower bound" `Quick
            test_simplex_negative_lower_bound;
          Alcotest.test_case "no constraints" `Quick
            test_simplex_no_constraints;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "constant objective" `Quick
            test_simplex_constant_objective;
          Alcotest.test_case "redundant equalities" `Quick
            test_simplex_redundant_equalities;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "fractional relaxation" `Quick
            test_ilp_fractional_relaxation;
          Alcotest.test_case "infeasible" `Quick test_ilp_infeasible;
          Alcotest.test_case "lazy cuts" `Quick test_ilp_lazy_cuts;
          Alcotest.test_case "near-integral branching" `Quick
            test_branching_near_integral;
        ] );
      ( "heap",
        [
          Alcotest.test_case "pops ascending" `Quick test_heap_pops_ascending;
          Alcotest.test_case "FIFO on ties" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "interleaved add/pop" `Quick
            test_heap_interleaved;
        ] );
      ( "model",
        [
          Alcotest.test_case "disjunction" `Quick test_model_disjunction;
          Alcotest.test_case "implies_ge" `Quick test_model_implies;
        ] );
      ( "reference",
        [ Alcotest.test_case "brute knapsack" `Quick test_brute_matches_example ]
      );
      ( "arena",
        [ Alcotest.test_case "epoch reuse" `Quick test_arena_epoch_reuse ] );
      ( "presolve",
        [
          Alcotest.test_case "singleton rows" `Quick
            test_presolve_singleton_rows;
          Alcotest.test_case "crossed bounds" `Quick
            test_presolve_detects_crossed_bounds;
          Alcotest.test_case "fixed substitution" `Quick
            test_presolve_substitutes_fixed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ilp_matches_brute;
            prop_simplex_below_ilp;
            prop_simplex_solution_feasible;
            prop_presolve_preserves_optimum;
            prop_warm_start_matches_cold;
            prop_production_matches_reference;
            prop_warm_production_matches_reference;
          ] );
    ]
