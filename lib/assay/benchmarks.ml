module Device = Pdw_biochip.Device
module Fluid = Pdw_biochip.Fluid

type t = {
  graph : Sequencing_graph.t;
  device_kinds : Device.kind list;
}

(* Small DSL: [node id kind duration inputs] where inputs mixes op
   references (`O j`, 1-based like the paper's o_j) and reagents (`R s`). *)
type src = O of int | R of string

let node ?park id kind duration srcs : Sequencing_graph.node =
  let input = function
    | O j -> Sequencing_graph.From_op (j - 1)
    | R s -> Sequencing_graph.From_reagent (Fluid.reagent s)
  in
  {
    op = Operation.make ~id:(id - 1) ~kind ?park ~duration ();
    inputs = List.map input srcs;
  }

(* A node whose result is parked in distributed channel storage until its
   consumers fetch it. *)
let pnode id kind duration srcs = node ~park:true id kind duration srcs

let graph name nodes = Sequencing_graph.make ~name nodes

let mixers n = List.init n (fun _ -> Device.Mixer)
let heaters n = List.init n (fun _ -> Device.Heater)
let detectors n = List.init n (fun _ -> Device.Detector)
let filters n = List.init n (fun _ -> Device.Filter)
let storages n = List.init n (fun _ -> Device.Storage)

(* PCR (7/5/15): three 3-reagent master-mix steps, two combination mixes,
   thermocycling, detection. *)
let pcr () =
  let open Operation in
  {
    graph =
      graph "PCR"
        [
          node 1 Mix 2 [ R "template"; R "primer_f"; R "primer_r" ];
          node 2 Mix 2 [ R "dntp"; R "polymerase"; R "mg_buffer" ];
          node 3 Mix 2 [ R "probe"; R "rox_dye"; R "water" ];
          node 4 Mix 2 [ O 1; O 2 ];
          node 5 Mix 2 [ O 4; O 3 ];
          node 6 Heat 4 [ O 5 ];
          node 7 Detect 2 [ O 6 ];
        ];
    device_kinds = mixers 2 @ heaters 1 @ detectors 1 @ storages 1;
  }

(* IVD (12/9/24): four sample/reagent preparations, four detections, four
   3-input luminescence mixes. *)
let ivd () =
  let open Operation in
  let sample i = Printf.sprintf "sample%d" i in
  let agent i = Printf.sprintf "agent%d" i in
  {
    graph =
      graph "IVD"
        [
          node 1 Mix 2 [ R (sample 1); R (agent 1) ];
          node 2 Mix 2 [ R (sample 2); R (agent 2) ];
          node 3 Mix 2 [ R (sample 3); R (agent 3) ];
          node 4 Mix 2 [ R (sample 4); R (agent 4) ];
          node 5 Detect 2 [ O 1 ];
          node 6 Detect 2 [ O 2 ];
          node 7 Detect 2 [ O 3 ];
          node 8 Detect 2 [ O 4 ];
          node 9 Mix 2 [ O 5; R "luminol"; R "oxidant" ];
          node 10 Mix 2 [ O 6; R "luminol"; R "oxidant" ];
          node 11 Mix 2 [ O 7; R "luminol"; R "oxidant" ];
          node 12 Mix 2 [ O 8; R "luminol"; R "oxidant" ];
        ];
    device_kinds = mixers 4 @ detectors 4 @ heaters 1;
  }

(* ProteinSplit (14/11/27): serial-dilution tree with detection and
   re-combination stages. *)
let protein_split () =
  let open Operation in
  {
    graph =
      graph "ProteinSplit"
        [
          node 1 Mix 3 [ R "protein"; R "diluent"; R "stabilizer" ];
          node 2 Mix 3 [ O 1; R "diluent"; R "salt" ];
          node 3 Mix 3 [ O 1; R "diluent"; R "salt2" ];
          node 4 Mix 2 [ O 2; R "diluent" ];
          node 5 Mix 2 [ O 2; R "diluent2" ];
          node 6 Mix 2 [ O 3; R "diluent" ];
          node 7 Mix 2 [ O 3; R "diluent2" ];
          node 8 Detect 2 [ O 4 ];
          node 9 Detect 2 [ O 5 ];
          node 10 Detect 2 [ O 6 ];
          node 11 Detect 2 [ O 7 ];
          node 12 Mix 3 [ O 8; O 9 ];
          node 13 Mix 3 [ O 10; O 11 ];
          node 14 Mix 2 [ O 12; O 13 ];
        ];
    device_kinds =
      mixers 5 @ detectors 4 @ heaters 1 @ storages 1;
  }

(* Kinase act-1 (4/9/16): few operations, each consuming many reagents. *)
let kinase_1 () =
  let open Operation in
  {
    graph =
      graph "Kinase act-1"
        [
          node 1 Mix 3
            [ R "kinase"; R "atp"; R "substrate"; R "mg_buffer"; R "dtt" ];
          node 2 Mix 3
            [ R "luciferase"; R "luciferin"; R "coa"; R "tris"; R "edta" ];
          node 3 Mix 3 [ O 1; O 2; R "stop_sol"; R "water" ];
          node 4 Mix 2 [ O 3; R "developer" ];
        ];
    device_kinds = mixers 4 @ detectors 2 @ heaters 2 @ storages 1;
  }

(* Kinase act-2 (12/9/48): dense variant — eight 4-reagent preparations
   feeding a two-level combination tree. *)
let kinase_2 () =
  let open Operation in
  let prep i =
    node i Mix 2
      [
        R (Printf.sprintf "enzyme%d" i);
        R (Printf.sprintf "substrate%d" i);
        R "atp";
        R "buffer_salt";
      ]
  in
  {
    graph =
      graph "Kinase act-2"
        [
          prep 1; prep 2; prep 3; prep 4; prep 5; prep 6; prep 7; prep 8;
          node 9 Mix 3 [ O 1; O 2; O 3; O 4 ];
          node 10 Mix 3 [ O 5; O 6; O 7; O 8 ];
          node 11 Mix 3 [ O 9; O 10; R "stop_sol"; R "water" ];
          node 12 Mix 2 [ O 11; R "developer"; R "luciferin"; R "coa" ];
        ];
    device_kinds = mixers 6 @ heaters 1 @ detectors 1 @ storages 1;
  }

(* Synthetic1 (10/12/15): a sparse chain exercising every device kind. *)
let synthetic_1 () =
  let open Operation in
  {
    graph =
      graph "Synthetic1"
        [
          node 1 Mix 2 [ R "a"; R "b" ];
          node 2 Mix 2 [ R "c"; R "d" ];
          node 3 Mix 2 [ R "e"; R "f" ];
          node 4 Mix 2 [ O 1; O 2 ];
          node 5 Mix 2 [ O 4; O 3 ];
          node 6 Filter 3 [ O 5 ];
          node 7 Heat 3 [ O 6 ];
          node 8 Detect 2 [ O 7 ];
          node 9 Store 2 [ O 8 ];
          node 10 Detect 2 [ O 9 ];
        ];
    device_kinds =
      mixers 4 @ heaters 2 @ detectors 2 @ filters 2 @ storages 2;
  }

(* Synthetic2 (15/13/24): three parallel branches recombined. *)
let synthetic_2 () =
  let open Operation in
  {
    graph =
      graph "Synthetic2"
        [
          node 1 Mix 2 [ R "a"; R "b" ];
          node 2 Mix 2 [ R "c"; R "d" ];
          node 3 Mix 2 [ R "e"; R "f" ];
          node 4 Mix 2 [ R "g"; R "h" ];
          node 5 Mix 2 [ R "i"; R "j" ];
          node 6 Mix 2 [ R "k"; R "l" ];
          node 7 Mix 2 [ O 1; O 2 ];
          node 8 Mix 2 [ O 3; O 4 ];
          node 9 Mix 2 [ O 5; O 6 ];
          node 10 Heat 3 [ O 7 ];
          node 11 Heat 3 [ O 8 ];
          node 12 Detect 2 [ O 9 ];
          node 13 Filter 3 [ O 10 ];
          node 14 Detect 2 [ O 11 ];
          node 15 Store 2 [ O 12 ];
        ];
    device_kinds =
      mixers 5 @ heaters 2 @ detectors 3 @ filters 1 @ storages 2;
  }

(* Synthetic3 (20/18/28): wide, mostly single-input pipeline stages. *)
let synthetic_3 () =
  let open Operation in
  {
    graph =
      graph "Synthetic3"
        [
          node 1 Mix 2 [ R "a"; R "b" ];
          node 2 Mix 2 [ R "c"; R "d" ];
          node 3 Mix 2 [ R "e"; R "f" ];
          node 4 Mix 2 [ R "g"; R "h" ];
          node 5 Mix 2 [ R "i"; R "j" ];
          node 6 Mix 2 [ R "k"; R "l" ];
          node 7 Mix 2 [ O 1; O 2 ];
          node 8 Mix 2 [ O 3; O 4 ];
          node 9 Heat 3 [ O 5 ];
          node 10 Heat 3 [ O 6 ];
          node 11 Detect 2 [ O 7 ];
          node 12 Detect 2 [ O 8 ];
          node 13 Filter 3 [ O 9 ];
          node 14 Filter 3 [ O 10 ];
          node 15 Heat 3 [ O 11 ];
          node 16 Store 2 [ O 12 ];
          node 17 Detect 2 [ O 13 ];
          node 18 Detect 2 [ O 14 ];
          node 19 Store 2 [ O 17 ];
          node 20 Store 2 [ O 18 ];
        ];
    device_kinds =
      mixers 6 @ heaters 3 @ detectors 4 @ filters 2 @ storages 3;
  }

(* The Fig. 1(c) assay: r1 filtered, mixed with r2, detected twice, with a
   heating branch recombined at the mixer. *)
let motivating () =
  let open Operation in
  {
    graph =
      graph "Motivating"
        [
          node 1 Filter 3 [ R "r1" ];
          node 2 Mix 2 [ O 1; R "r2" ];
          node 3 Detect 2 [ O 1 ];
          node 4 Detect 2 [ O 2 ];
          node 5 Heat 3 [ O 3 ];
          node 6 Mix 2 [ O 4; O 5 ];
          node 7 Detect 2 [ O 6 ];
        ];
    device_kinds =
      [ Device.Mixer; Device.Filter; Device.Detector; Device.Detector;
        Device.Heater ];
  }

(* Colorimetric protein assay: three-stage serial dilution, Biuret
   reagent added to each dilution level, optical read-out per level. *)
let cpa () =
  let open Operation in
  {
    graph =
      graph "CPA"
        [
          node 1 Mix 2 [ R "protein"; R "diluent" ];
          node 2 Mix 2 [ O 1; R "diluent" ];
          node 3 Mix 2 [ O 2; R "diluent" ];
          node 4 Mix 2 [ O 3; R "diluent" ];
          node 5 Mix 2 [ O 1; R "biuret" ];
          node 6 Mix 2 [ O 2; R "biuret" ];
          node 7 Mix 2 [ O 3; R "biuret" ];
          node 8 Mix 2 [ O 4; R "biuret" ];
          node 9 Store 3 [ O 5 ];
          node 10 Detect 2 [ O 9 ];
          node 11 Detect 2 [ O 6 ];
          node 12 Detect 2 [ O 7 ];
          node 13 Detect 2 [ O 8 ];
        ];
    device_kinds = mixers 4 @ detectors 3 @ storages 1;
  }

(* Nucleic-acid isolation: lysis mix, incubation, filtering, elution and
   a final purity check. *)
let nucleic_acid () =
  let open Operation in
  {
    graph =
      graph "NucleicAcid"
        [
          node 1 Mix 2 [ R "cells"; R "lysis_buffer" ];
          node 2 Store 4 [ O 1 ];
          node 3 Filter 3 [ O 2 ];
          node 4 Mix 2 [ O 3; R "wash_salt"; R "ethanol" ];
          node 5 Filter 3 [ O 4 ];
          node 6 Mix 2 [ O 5; R "elution_buffer" ];
          node 7 Heat 3 [ O 6 ];
          node 8 Detect 2 [ O 7 ];
        ];
    device_kinds =
      mixers 2 @ filters 2 @ heaters 1 @ detectors 1 @ storages 1;
  }

(* --- Storage-pressure assays -------------------------------------------
   Workloads in the regime of distributed channel storage (Tseng et al.;
   Liu et al.): intermediate products are parked in channel segments and
   fetched later, so parked-residue windows and channel holds dominate the
   wash problem.  Reported next to the Table II rows by [bench]. *)

(* Two master mixes parked while a slow thermal stage runs, then fetched
   into the combination chain. *)
let storage_shuttle () =
  let open Operation in
  {
    graph =
      graph "StorageShuttle"
        [
          pnode 1 Mix 2 [ R "a"; R "b" ];
          pnode 2 Mix 2 [ R "c"; R "d" ];
          node 3 Heat 6 [ R "e" ];
          node 4 Mix 2 [ O 1; O 3 ];
          node 5 Mix 2 [ O 2; O 4 ];
          node 6 Detect 2 [ O 5 ];
        ];
    device_kinds = mixers 2 @ heaters 1 @ detectors 1;
  }

(* Serial-dilution ladder where every dilution level is parked and fetched
   twice: once by the next level, once by its read-out mix.  Multi-fetch
   holds with long parked-residue windows. *)
let storage_ladder () =
  let open Operation in
  {
    graph =
      graph "StorageLadder"
        [
          pnode 1 Mix 2 [ R "protein"; R "diluent" ];
          pnode 2 Mix 2 [ O 1; R "diluent" ];
          pnode 3 Mix 2 [ O 2; R "diluent" ];
          node 4 Mix 2 [ O 1; R "biuret" ];
          node 5 Mix 2 [ O 2; R "biuret" ];
          node 6 Mix 2 [ O 3; R "biuret" ];
          node 7 Detect 2 [ O 4 ];
          node 8 Detect 2 [ O 5 ];
          node 9 Detect 2 [ O 6 ];
        ];
    device_kinds = mixers 3 @ detectors 2;
  }

(* Six preparations parked at once on a chip with few mixers: maximal
   concurrent channel-storage pressure, then two burst consumptions. *)
let storage_burst () =
  let open Operation in
  let prep i =
    pnode i Mix 2
      [ R (Printf.sprintf "enzyme%d" i); R (Printf.sprintf "substrate%d" i) ]
  in
  {
    graph =
      graph "StorageBurst"
        [
          prep 1; prep 2; prep 3; prep 4; prep 5; prep 6;
          node 7 Mix 3 [ O 1; O 2; O 3 ];
          node 8 Mix 3 [ O 4; O 5; O 6 ];
          node 9 Mix 2 [ O 7; O 8 ];
          node 10 Detect 2 [ O 9 ];
        ];
    device_kinds = mixers 3 @ detectors 1;
  }

let storage () =
  [
    ("StorageShuttle", storage_shuttle ());
    ("StorageLadder", storage_ladder ());
    ("StorageBurst", storage_burst ());
  ]

let extra () = [ ("CPA", cpa ()); ("NucleicAcid", nucleic_acid ()) ]

let all () =
  [
    ("PCR", pcr ());
    ("IVD", ivd ());
    ("ProteinSplit", protein_split ());
    ("Kinase act-1", kinase_1 ());
    ("Kinase act-2", kinase_2 ());
    ("Synthetic1", synthetic_1 ());
    ("Synthetic2", synthetic_2 ());
    ("Synthetic3", synthetic_3 ());
  ]

let catalog () =
  (("Motivating", motivating ()) :: all ()) @ extra () @ storage ()

let find name =
  let norm = String.lowercase_ascii name in
  List.find_map
    (fun (n, b) ->
      if String.equal (String.lowercase_ascii n) norm then Some b else None)
    (catalog ())
