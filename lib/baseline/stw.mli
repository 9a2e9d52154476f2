open Dgr_graph
open Dgr_task

(** Stop-the-world mark & sweep — the "conventional" collector the paper's
    concurrent scheme is measured against (§4: a static marking algorithm
    "would require that the computation be halted while marking takes
    place").

    [collect] runs synchronously: BFS-mark everything reachable from the
    root through [args], sweep the rest to the free list, purge tasks whose
    endpoints died. The returned [work] (vertices traced + table swept) is
    the pause the engine charges to the mutator. *)

type report = {
  marked : int;
  reclaimed : int;
  garbage : Vid.t list;  (** the reclaimed vids, now on the free list *)
  purged_tasks : int;
  work : int;  (** abstract pause cost: |trace| + |sweep| *)
}

val collect : Graph.t -> purge_tasks:((Task.t -> bool) -> int) -> report
