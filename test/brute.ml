(* Exhaustive reference solver for pure 0/1 problems: enumerates every
   assignment of the variables (each bounded within [0, 1], at most 24
   of them) and keeps the best feasible one, or [None] when no
   assignment satisfies the constraints.  The oracle [Simplex]/[Ilp]
   are checked against on tiny instances. *)

module Lin_expr = Pdw_lp.Lin_expr
module Lp_problem = Pdw_lp.Lp_problem

let solve_binary (p : Lp_problem.t) =
  let n = p.num_vars in
  if n > 24 then invalid_arg "Brute.solve_binary: too many variables";
  Array.iter
    (fun (b : Lp_problem.bounds) ->
      let upper_ok = match b.upper with Some u -> u <= 1.0 | None -> false in
      if b.lower < 0.0 || not upper_ok then
        invalid_arg "Brute.solve_binary: variables must be 0/1")
    p.var_bounds;
  let best = ref None in
  let x = Array.make n 0.0 in
  let total = 1 lsl n in
  for mask = 0 to total - 1 do
    for v = 0 to n - 1 do
      x.(v) <- (if mask land (1 lsl v) <> 0 then 1.0 else 0.0)
    done;
    if Lp_problem.satisfies p x then begin
      let obj = Lin_expr.eval p.objective (fun v -> x.(v)) in
      match !best with
      | Some (b, _) when b <= obj -> ()
      | Some _ | None -> best := Some (obj, Array.copy x)
    end
  done;
  !best
