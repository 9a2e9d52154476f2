open Dgr_graph
open Dgr_task

(** Per-PE task pools (§5.2's [taskpool(i)]) with dynamic prioritization.

    A pool is a priority queue (FIFO among equals, so execution stays
    deterministic). The policy decides how much of the paper's §3.2 the
    scheduler uses:

    - [Flat]: no priorities (everything FIFO) — the ablation baseline;
    - [By_demand]: vital requests before eager ones, statically;
    - [Dynamic]: additionally refined by the destination vertex's
      [sched_prior] — the global priority the last completed M_R cycle
      assigned (3 vital / 2 eager / 1 reserve), so an eager subtree that
      became vital is boosted and one that became reserve is demoted. *)

type policy = Flat | By_demand | Dynamic

val policy_to_string : policy -> string

type t

val create :
  ?recorder:Dgr_obs.Recorder.t ->
  ?lineage:Dgr_obs.Lineage.t ->
  ?pe:int ->
  policy ->
  Graph.t ->
  t
(** [pe] (default 0) is the owning PE's index, used only to stamp trace
    events; with a recorder, {!purge} emits a [Purge] event per non-empty
    sweep. With a [lineage] store, {!purge} releases the tickets of the
    tasks it expunges (stamps ride queue tags; see {!push_stamped}). *)

val push : t -> Task.t -> unit
(** Enqueue an untracked task ({!push_stamped} with stamp [-1]). *)

val push_stamped : t -> stamp:int -> Task.t -> unit
(** [stamp] is the task's lineage ticket ([-1]: untracked); it rides the
    queue untouched and comes back out of {!pop_stamped}. Allocates
    nothing once the pool's queue has grown to its working depth. *)

val pop : t -> Task.t option
(** Highest-priority reduction task, falling back to marking work when no
    reduction is queued (an idle PE lends its slot to the collector). *)

val pop_stamped : t -> (Task.t * int) option
(** {!pop}, also returning the task's lineage stamp ([-1] untracked). *)

val pop_marking : t -> Task.t option
(** Highest-priority queued marking task, if any — marking and reduction
    live in separate queues so the engine can budget them separately. *)

val pop_marking_stamped : t -> (Task.t * int) option
(** {!pop_marking} with the task's lineage stamp. *)

val drain : t -> budget:int -> (Task.t -> int -> unit) -> unit
(** Pop and apply [f task stamp] up to [budget] times in {!pop_stamped}
    order (reduction first, then marking), stopping early when both
    queues run dry. Allocates nothing — the engine's budget-loop form. *)

val drain_marking : t -> budget:int -> (Task.t -> int -> unit) -> unit
(** {!drain} over the marking queue only ({!pop_marking_stamped} order). *)

val length : t -> int

val is_empty : t -> bool

val tasks : t -> Task.t list
(** Queue order (ascending priority, FIFO among ties) — deterministic, so
    external views built from pool contents are stable. *)

val iter_tasks : t -> (Task.t -> unit) -> unit
(** Apply [f] to every pooled task in {e unspecified} order, without
    sorting or allocating — for callers folding into order-insensitive
    structures (e.g. the M_T seed set). *)

val purge : t -> (Task.t -> bool) -> int
(** Remove all tasks matching the predicate; returns how many. *)

val reprioritize : t -> int
(** Recompute priorities under the current graph state ([sched_prior] may
    have changed after a cycle); returns the number of entries whose
    priority changed. *)

val priority_of : policy -> Graph.t -> Task.t -> int
(** Exposed for tests. Marking = 0; cancels = 1. Under [Dynamic], a
    request's global class is its destination's [sched_prior] when
    classified, else inherited from its source capped by the relative
    demand (a task spawned from an eager region stays eager, §3.2);
    responses ride their requester's class. Classes map to bands: vital
    responses (1), vital requests (2), eager responses (3), eager
    requests (4), reserve (5). *)
