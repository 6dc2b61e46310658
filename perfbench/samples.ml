(* A growable buffer of float samples and the order statistics the
   benchmark reports.  Quantiles use the nearest-rank rule on the full
   sorted sample, so a p99 is an observed value, never an
   interpolation. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len
let to_array t = Array.sub t.data 0 t.len

let quantile_of_array a q =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let quantile t q = quantile_of_array (to_array t) q

(* Samples strictly above the [q] quantile: the benchmark requires at
   least ten beyond the p99 it reports. *)
let beyond t q =
  let v = quantile t q in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 (to_array t)

let median_of_list xs = quantile_of_array (Array.of_list xs) 0.5
