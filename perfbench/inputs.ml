(* Workload inputs.  Everything a run plans is a [Protocol.spec] drawn
   from the benchmark seed, so the offline and the served workloads
   describe their inputs in one vocabulary and the same seed always
   yields the same specs.  The program under test receives only these
   generated inputs. *)

module Protocol = Pdw_service.Protocol
module Benchmarks = Pdw_assay.Benchmarks
module Assay_gen = Pdw_assay.Assay_gen
module Assay_parser = Pdw_assay.Assay_parser
module Sequencing_graph = Pdw_assay.Sequencing_graph
module Pdw = Pdw_wash.Pdw

type size = Full | Tiny

type input = {
  label : string;  (** how the input is cited in failure reports *)
  spec : Protocol.spec;
}

(* Random assays follow ROADMAP's differential sweep: 3 to 12
   operations, and in half of them each operation's result is parked
   with probability 0.4, the storage pressure of Liu et al., "Transport
   or Store?".  The stream is stratified rather than drawn: the i-th
   assay has [3 + i mod 10] operations and is parked when [i / 10] is
   odd, so every run plans the same mix of sizes and only the assays'
   structure follows the seed; per-run means then stay steady across
   seeds.  The label names the exact [Assay_gen.random] call, so a
   failing input can be replayed. *)
let min_ops = 3
let sizes = 10

let random_input ~ops ~assay_seed ~park_fraction =
  let name = Printf.sprintf "random%d" assay_seed in
  let b = Assay_gen.random ~min_ops:ops ~max_ops:ops ~park_fraction ~seed:assay_seed () in
  {
    label =
      Printf.sprintf "Assay_gen.random ~min_ops:%d ~max_ops:%d ~park_fraction:%g ~seed:%d" ops ops
        park_fraction assay_seed;
    spec = Protocol.spec (Protocol.Inline (Assay_parser.to_string ~name b));
  }

(* Assay seeds of one stream: a pure function of (benchmark seed,
   stream), so the streams of one run never overlap by accident. *)
let assay_seeds ~seed ~stream n =
  let st = Random.State.make [| seed; stream |] in
  List.init n (fun _ -> Random.State.bits st)

let random_stream ?(parked = true) ~seed ~stream n =
  List.mapi
    (fun i assay_seed ->
      let park_fraction = if parked && i / sizes mod 2 = 1 then 0.4 else 0.0 in
      random_input ~ops:(min_ops + (i mod sizes)) ~assay_seed ~park_fraction)
    (assay_seeds ~seed ~stream n)

let named_input name = { label = name; spec = Protocol.spec (Protocol.Benchmark name) }

(* Table II, the storage trio and the extra protocols. *)
let named () =
  List.map
    (fun (name, _) -> named_input name)
    (Benchmarks.all () @ Benchmarks.storage () @ Benchmarks.extra ())

let take n xs = List.filteri (fun i _ -> i < n) xs

(* exact-ilp: the motivating assay on the Fig. 2 chip with exact ILP
   wash paths, as variants: unchanged, or with one operation parked in
   channel storage.  Every variant solves to proven
   optimality in tens of milliseconds; two parked operations do not fit
   the chip's storage cells. *)
let ilp_config = { Pdw.default_config with use_ilp_paths = true }

let ilp_variants = 8

(* Variant [k]: operation [k] parked, or nothing parked for [k = 7]. *)
let exact_ilp_variant k =
  let park = if k = ilp_variants - 1 then [] else [ k ] in
  {
    label = Printf.sprintf "motivating ilp park=[%s]" (String.concat ";" (List.map string_of_int park));
    spec = Protocol.spec ~config:ilp_config ~park (Protocol.Benchmark "motivating");
  }

(* Every variant equally often, in an order drawn from the seed: the
   variants' solver costs differ, so a drawn mix moved the run's mean
   and median by up to a fifth between seeds. *)
let exact_ilp ~size ~seed =
  let n = match size with Full -> 64 | Tiny -> 3 in
  let st = Random.State.make [| seed; 2 |] in
  let order = Array.init n (fun i -> i mod ilp_variants) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  List.map exact_ilp_variant (Array.to_list order)

(* exact-ilp's warm-up: every variant twice, whatever the seed, so the
   set-up does the same solver work on every run. *)
let exact_ilp_warmup () = List.init (2 * ilp_variants) (fun i -> exact_ilp_variant (i mod ilp_variants))

(* plan-batch: every named assay, every exact-ILP variant once (the
   only plans of a gated workload that reach the lp layer), then a
   seeded random stream. *)
let plan_batch ~size ~seed =
  let ilp = List.init ilp_variants exact_ilp_variant in
  match size with
  | Full -> named () @ ilp @ random_stream ~seed ~stream:1 480
  | Tiny -> take 2 (named ()) @ take 1 ilp @ random_stream ~seed ~stream:1 4

(* serve-hits: a fixed working set that fits the daemon's plan cache.
   Its random assays are storage-free: a spec the planner raises on is
   never cached, so it would turn hits into planner runs; the parked
   stream's raises are measured by plan-batch and serve-fill. *)
let serve_hits ~size ~seed =
  let random = random_stream ~parked:false ~seed ~stream:3 in
  match size with
  | Full -> named () @ random 227
  | Tiny -> take 1 (named ()) @ random 3

(* serve-fill: distinct assays, one per request, plus a disjoint
   warm-up stream. *)
let serve_fill ~seed n = random_stream ~seed ~stream:4 n
let serve_fill_warmup ~seed n = random_stream ~seed ~stream:5 n

let request_bytes spec =
  Pdw_obs.Json.to_string
    (Protocol.request_to_json (Protocol.Submit { spec; no_cache = false }))
