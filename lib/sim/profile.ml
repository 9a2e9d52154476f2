(* Step-phase profiler: wall-clock and allocation attribution of engine
   time.

   Each engine step is bracketed into phases — transport (network flush
   and delivery), execution (the per-PE budget loops, on a buffered
   step preceded by each PE's pushes of its delivered tasks into its
   pool: the only span the sharded engine runs in parallel), barrier
   merge (sub-recorder drain, metric absorption, mailbox flush,
   controller replay), GC control, and bookkeeping (counter sync,
   watchdogs, sampling). Within the execution span the budget loops
   further split their time into marking and reduction work.

   Alongside each wall-clock span the same brackets accumulate
   [Gc.minor_words] deltas, attributing the engine's minor-heap traffic
   to phases — the working measure for the allocation-free inner-loop
   budget ([minor_words_per_step] in the bench): when the bench gate
   trips, the per-phase words say which span regressed.

   The measured Amdahl serial fraction falls out directly:
   everything outside the sharded spans — the execution span and
   restructure's per-home passes — is serial by construction, so

     serial_fraction = (total - execute - restructure) / total

   is the ceiling on what domain-sharding can ever win — the yardstick
   for ROADMAP item 1. At [--domains 1] the sharded spans still count
   as parallelizable: the figure then reads "what fraction of this run
   a perfectly parallel machine could compress".

   Wall-clock readings never feed deterministic artifacts (traces,
   metrics JSON, golden lines); [dgr report --deterministic] and the
   deterministic bench rows zero them. Minor-word readings are exact
   counts, but the sharded engine's worker domains keep their own
   counters, so per-phase words are only attributed on the coordinating
   domain. *)

type t = {
  mutable steps : int;
  mutable total_ns : float;
  mutable transport_ns : float;
  mutable execute_ns : float;  (* parallel(izable) buffered execution span *)
  mutable sexec_ns : float;  (* serial-only execution span (faults/RC/cycle) *)
  mutable merge_ns : float;
  (* Inside merge, where the barrier's time goes — the attack surface of
     the pay-as-you-go merge. [pflush_ns] is the destination-sharded
     grouping pass: per-destination state is disjoint, so that span runs
     on the worker pool and counts as parallelizable alongside execute
     and restructure. *)
  mutable drain_ns : float;  (* inside merge: sub-recorder event drain *)
  mutable absorb_ns : float;
      (* inside merge: metrics/reducer absorption — O(what the step
         touched): dirty histogram buckets, and only the vertices that
         got stuck this step (the stuck set answers membership in O(1)) *)
  mutable close_ns : float;  (* inside merge: batched lineage closes *)
  mutable pflush_ns : float;  (* inside merge: sharded flush grouping (parallelizable) *)
  mutable flush_ns : float;  (* inside merge: serial flush finalization *)
  mutable replay_ns : float;  (* inside merge: coop + controller replay *)
  mutable gc_ns : float;
  mutable book_ns : float;
  mutable restr_ns : float;  (* inside gc: restructure's sharded home passes *)
  mutable mark_ns : float;
      (* inside execute: pool pushes of the step's deliveries, then the
         marking budget loops *)
  mutable red_ns : float;  (* inside execute: reduction budget loops *)
  mutable total_mw : float;  (* minor words, same brackets as the ns spans *)
  mutable transport_mw : float;
  mutable execute_mw : float;
  mutable sexec_mw : float;
  mutable merge_mw : float;
  mutable gc_mw : float;
  mutable book_mw : float;
}

(* The engine's running sums. Every field is a float, so the record is
   laid out flat and an update stores an unboxed double: it allocates
   nothing. In [t], whose [steps] is an int, each float field points at
   a boxed float and every update would allocate one. *)
module Sums = struct
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

  let create () =
    {
      total_ns = 0.0;
      transport_ns = 0.0;
      execute_ns = 0.0;
      sexec_ns = 0.0;
      merge_ns = 0.0;
      drain_ns = 0.0;
      absorb_ns = 0.0;
      close_ns = 0.0;
      pflush_ns = 0.0;
      flush_ns = 0.0;
      replay_ns = 0.0;
      gc_ns = 0.0;
      book_ns = 0.0;
      restr_ns = 0.0;
      mark_ns = 0.0;
      red_ns = 0.0;
      total_mw = 0.0;
      transport_mw = 0.0;
      execute_mw = 0.0;
      sexec_mw = 0.0;
      merge_mw = 0.0;
      gc_mw = 0.0;
      book_mw = 0.0;
    }
end

let of_sums ~steps (s : Sums.t) =
  {
    steps;
    total_ns = s.Sums.total_ns;
    transport_ns = s.Sums.transport_ns;
    execute_ns = s.Sums.execute_ns;
    sexec_ns = s.Sums.sexec_ns;
    merge_ns = s.Sums.merge_ns;
    drain_ns = s.Sums.drain_ns;
    absorb_ns = s.Sums.absorb_ns;
    close_ns = s.Sums.close_ns;
    pflush_ns = s.Sums.pflush_ns;
    flush_ns = s.Sums.flush_ns;
    replay_ns = s.Sums.replay_ns;
    gc_ns = s.Sums.gc_ns;
    book_ns = s.Sums.book_ns;
    restr_ns = s.Sums.restr_ns;
    mark_ns = s.Sums.mark_ns;
    red_ns = s.Sums.red_ns;
    total_mw = s.Sums.total_mw;
    transport_mw = s.Sums.transport_mw;
    execute_mw = s.Sums.execute_mw;
    sexec_mw = s.Sums.sexec_mw;
    merge_mw = s.Sums.merge_mw;
    gc_mw = s.Sums.gc_mw;
    book_mw = s.Sums.book_mw;
  }

let now () = Unix.gettimeofday () *. 1e9

let words () = Gc.minor_words ()

let serial_fraction t =
  if t.total_ns <= 0.0 then 0.0
  else
    Float.max 0.0
      ((t.total_ns -. t.execute_ns -. t.restr_ns -. t.pflush_ns) /. t.total_ns)

(* Amdahl: the best speedup [domains] workers can extract when only the
   execution span parallelizes. *)
let amdahl_speedup t ~domains =
  let s = serial_fraction t in
  1.0 /. (s +. ((1.0 -. s) /. float_of_int (Stdlib.max 1 domains)))

let share t part = if t.total_ns <= 0.0 then 0.0 else part /. t.total_ns

let per_step t part = if t.steps <= 0 then 0.0 else part /. float_of_int t.steps

let to_json t =
  Printf.sprintf
    "{\"steps\":%d,\"total_ms\":%.3f,\"transport\":%.4f,\"execute\":%.4f,\"execute_serial\":%.4f,\"merge\":%.4f,\"merge_breakdown\":{\"drain\":%.4f,\"absorb\":%.4f,\"close\":%.4f,\"flush_sharded\":%.4f,\"flush_serial\":%.4f,\"replay\":%.4f},\"gc\":%.4f,\"bookkeeping\":%.4f,\"restructure\":%.4f,\"marking\":%.4f,\"reduction\":%.4f,\"serial_fraction\":%.4f,\"mw_per_step\":{\"transport\":%.1f,\"execute\":%.1f,\"execute_serial\":%.1f,\"merge\":%.1f,\"gc\":%.1f,\"bookkeeping\":%.1f}}"
    t.steps (t.total_ns /. 1e6) (share t t.transport_ns) (share t t.execute_ns)
    (share t t.sexec_ns) (share t t.merge_ns) (share t t.drain_ns)
    (share t t.absorb_ns) (share t t.close_ns) (share t t.pflush_ns)
    (share t t.flush_ns) (share t t.replay_ns) (share t t.gc_ns) (share t t.book_ns)
    (share t t.restr_ns) (share t t.mark_ns) (share t t.red_ns) (serial_fraction t)
    (per_step t t.transport_mw) (per_step t t.execute_mw) (per_step t t.sexec_mw)
    (per_step t t.merge_mw) (per_step t t.gc_mw) (per_step t t.book_mw)
