(** Step-phase profiler: where the engine's wall-clock time — and its
    minor-heap allocation — goes.

    The engine brackets each step into transport / execution / barrier
    merge / GC control / bookkeeping phases, and the execution budget
    loops split their span into marking vs reduction work. The merge
    span is further split into its barrier stages (event drain, metric
    absorption, lineage closes, mailbox flush, deferred replay). The
    sharded engine runs three spans in parallel — execution,
    restructure's per-home passes, and the destination-sharded half of
    the mailbox flush — so the measured Amdahl serial fraction is
    [(total - execute - restructure - sharded_flush) / total], the
    direct yardstick for ROADMAP item 1's "shrink the serial
    controller".

    The same brackets also accumulate [Gc.minor_words] deltas, so the
    bench's [minor_words_per_step] budget can be attributed to a phase
    when it regresses. On the sharded engine only the coordinating
    domain's words are attributed (workers count on their own heaps).

    Wall-clock readings are non-deterministic; they never feed traces,
    metrics JSON or golden fixtures. Deterministic outputs
    ([dgr report --deterministic], deterministic bench rows) zero the
    whole profile. *)

type t = {
  mutable steps : int;
  mutable total_ns : float;
  mutable transport_ns : float;
  mutable execute_ns : float;
  mutable sexec_ns : float;
  mutable merge_ns : float;
  mutable drain_ns : float;
  mutable absorb_ns : float;
  mutable close_ns : float;
  mutable pflush_ns : float;
  mutable flush_ns : float;
  mutable replay_ns : float;
  mutable gc_ns : float;
  mutable book_ns : float;
  mutable restr_ns : float;
  mutable mark_ns : float;
  mutable red_ns : float;
  mutable total_mw : float;
  mutable transport_mw : float;
  mutable execute_mw : float;
  mutable sexec_mw : float;
  mutable merge_mw : float;
  mutable gc_mw : float;
  mutable book_mw : float;
}

(** The running sums {!t} is read from: the same float fields, flat, so
    the engine's per-phase updates allocate nothing. *)
module Sums : sig
  type t = {
    mutable total_ns : float;
    mutable transport_ns : float;
    mutable execute_ns : float;
    mutable sexec_ns : float;
    mutable merge_ns : float;
    mutable drain_ns : float;
    mutable absorb_ns : float;
    mutable close_ns : float;
    mutable pflush_ns : float;
    mutable flush_ns : float;
    mutable replay_ns : float;
    mutable gc_ns : float;
    mutable book_ns : float;
    mutable restr_ns : float;
    mutable mark_ns : float;
    mutable red_ns : float;
    mutable total_mw : float;
    mutable transport_mw : float;
    mutable execute_mw : float;
    mutable sexec_mw : float;
    mutable merge_mw : float;
    mutable gc_mw : float;
    mutable book_mw : float;
  }

  val create : unit -> t
end

(** [of_sums ~steps s] is a {!t} holding [s]'s current sums. *)
val of_sums : steps:int -> Sums.t -> t

(** Monotonic-enough wall clock in nanoseconds (the engine only ever
    differences readings taken microseconds apart). *)
val now : unit -> float

(** This domain's cumulative minor-heap allocation in words
    ([Gc.minor_words]) — differenced at the same points as {!now}. *)
val words : unit -> float

(** Fraction of total step time spent outside the parallelizable spans
    (execution, sharded restructure, and the sharded flush-grouping
    pass), in [0, 1]; [0.0] before any step ran. *)
val serial_fraction : t -> float

(** Best-case speedup at [domains] workers under Amdahl's law with the
    measured serial fraction. *)
val amdahl_speedup : t -> domains:int -> float

(** Phase shares, the serial fraction, and per-phase minor words per
    step as a JSON object. Wall-clock derived — not byte-deterministic. *)
val to_json : t -> string
