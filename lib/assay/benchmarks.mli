(** The eight assays of Table II (five real-life bioassays, three
    synthetic) plus the motivating example of Fig. 1(c).

    The published paper specifies each benchmark only by its
    [|O|/|D|/|E|] counts; the concrete protocols here are reconstructions
    with realistic operation mixes that match those counts exactly (see
    DESIGN.md, "Substitutions").  Device kind lists define the device
    library (the [|D|] column). *)

type t = {
  graph : Sequencing_graph.t;
  device_kinds : Pdw_biochip.Device.kind list;
      (** the device library; its length is Table II's [|D|] *)
}

(** PCR: 7/5/15 *)
val pcr : unit -> t

(** IVD: 12/9/24 *)
val ivd : unit -> t

(** ProteinSplit: 14/11/27 *)
val protein_split : unit -> t

(** Kinase act-1: 4/9/16 *)
val kinase_1 : unit -> t

(** Kinase act-2: 12/9/48 *)
val kinase_2 : unit -> t

(** Synthetic1: 10/12/15 *)
val synthetic_1 : unit -> t

(** Synthetic2: 15/13/24 *)
val synthetic_2 : unit -> t

(** Synthetic3: 20/18/28 *)
val synthetic_3 : unit -> t

(** The assay of Fig. 1(c): two reagents, seven operations, run on the
    [Pdw_biochip.Layout_builder.fig2_layout] chip. *)
val motivating : unit -> t

(** Table II rows in paper order: name, benchmark. *)
val all : unit -> (string * t) list

(** Colorimetric protein assay (CPA): a serial-dilution ladder of the
    protein sample, Biuret reagent mixing and optical detection — a
    classic continuous-flow benchmark beyond the paper's Table II.
    |O| = 13, |E| = 21. *)
val cpa : unit -> t

(** Nucleic-acid isolation in the style of Hong et al. [3]: cell lysis,
    incubation, filtering, elution and detection.  |O| = 8, |E| = 12. *)
val nucleic_acid : unit -> t

(** The extra (non-Table II) protocols: name, benchmark. *)
val extra : unit -> (string * t) list

(** Storage-pressure assays: workloads whose intermediate products are
    parked in distributed channel storage ([Operation.park]) and fetched
    later, stressing hold intervals and parked-residue windows. *)

(** StorageShuttle: two parked master mixes waiting on a slow thermal
    stage.  |O| = 6. *)
val storage_shuttle : unit -> t

(** StorageLadder: a dilution ladder whose every level is parked and
    fetched twice.  |O| = 9. *)
val storage_ladder : unit -> t

(** StorageBurst: six concurrent parks on a mixer-starved chip.
    |O| = 10. *)
val storage_burst : unit -> t

(** The storage-pressure assays: name, benchmark. *)
val storage : unit -> (string * t) list

(** Every named benchmark, in listing order: the motivating example
    (as ["Motivating"]), the Table II rows, the extra protocols and the
    storage-pressure assays. *)
val catalog : unit -> (string * t) list

(** [find name] is the [catalog] entry with that name
    (case-insensitive). *)
val find : string -> t option
