open Dgr_util
open Dgr_graph
open Dgr_task

type policy = Flat | By_demand | Dynamic

let policy_to_string = function
  | Flat -> "flat"
  | By_demand -> "by-demand"
  | Dynamic -> "dynamic"

(* Marking and reduction tasks occupy separate queues: the engine gives
   each its own per-step budget, so GC and computation cannot starve one
   another by queue position alone. *)
type t = {
  marking : Task.t Pqueue.t;
  reduction : Task.t Pqueue.t;
  policy : policy;
  g : Graph.t;
  pe : int;
  recorder : Dgr_obs.Recorder.t option;
  lineage : Dgr_obs.Lineage.t option;
      (* release tickets of purged tasks; pops return the stamp to the
         engine, which closes it at execution *)
}

(* The global class of a vertex: the priority the last completed M_R
   cycle assigned (3 vital / 2 eager / 1 reserve), 0 when not yet
   classified. *)
let class_of g v = if Graph.mem g v then (Vertex.sched_prior (Graph.vertex g v)) else 0

(* Effective global class of a request <s,d>: the destination's class if
   known; otherwise inherit from the source, capped by the request's own
   (relative) demand — a task spawned from an eager region stays eager no
   matter how "vital" it is locally (§3.2). Fresh regions with no
   classified source fall back to the relative demand. [src] is [-1]
   when the request has no source (unboxed: this runs once per push). *)
let request_class g ~src ~dst ~demand =
  match demand with
  | Demand.Vital ->
    (* A vital-flagged task is vital no matter what an older cycle said:
       demand upgrades (§3.2 item 2) travel by task between cycles. *)
    3
  | Demand.Eager -> (
    match class_of g dst with
    | 0 -> if src >= 0 && class_of g src > 0 then Int.min (class_of g src) 2 else 2
    | c -> c)

let priority_of policy g task =
  match task with
  | Task.Marking _ -> 0
  | Task.Reduction (Task.Cancel _) -> 1 (* cheap, and it shrinks future work *)
  | Task.Reduction (Task.Respond { src; dst; demand; _ }) -> (
    match policy with
    | Flat -> 2
    | By_demand -> ( match demand with Demand.Vital -> 1 | Demand.Eager -> 3)
    | Dynamic -> (
      let cls =
        match dst with
        | None -> 3
        | Some d -> request_class g ~src ~dst:d ~demand
      in
      match cls with 3 -> 1 | 2 -> 3 | _ -> 5))
  | Task.Reduction (Task.Request { src; dst; demand; _ }) -> (
    match policy with
    | Flat -> 2
    | By_demand -> ( match demand with Demand.Vital -> 2 | Demand.Eager -> 4)
    | Dynamic -> (
      let src = match src with Some s -> s | None -> -1 in
      match request_class g ~src ~dst ~demand with 3 -> 2 | 2 -> 4 | _ -> 5))

let create ?recorder ?lineage ?(pe = 0) policy g =
  {
    marking = Pqueue.create ();
    reduction = Pqueue.create ();
    policy;
    g;
    pe;
    recorder;
    lineage;
  }

let push_stamped t ~stamp task =
  let q = match task with Task.Marking _ -> t.marking | Task.Reduction _ -> t.reduction in
  Pqueue.add_tagged q (priority_of t.policy t.g task) ~tag:stamp task

let push t task = push_stamped t ~stamp:(-1) task

let pop_stamped t =
  match Pqueue.pop_tagged t.reduction with
  | Some (_, stamp, task) -> Some (task, stamp)
  | None -> (
    match Pqueue.pop_tagged t.marking with
    | Some (_, stamp, task) -> Some (task, stamp)
    | None -> None)

let pop t = Option.map fst (pop_stamped t)

let pop_marking_stamped t =
  match Pqueue.pop_tagged t.marking with
  | Some (_, stamp, task) -> Some (task, stamp)
  | None -> None

let pop_marking t = Option.map fst (pop_marking_stamped t)

(* Budgeted callback drains — the no-box counterparts of the
   [pop_*_stamped] forms, for the engine's per-step budget loops. Pop
   order is identical: [drain] serves the reduction queue first and falls
   back to marking, like [pop_stamped]. *)
let drain_marking t ~budget f =
  let n = ref 0 in
  while !n < budget && Pqueue.pop_tagged_with t.marking f do
    incr n
  done

let drain t ~budget f =
  let n = ref 0 in
  let continue = ref true in
  while !n < budget && !continue do
    if Pqueue.pop_tagged_with t.reduction f then incr n
    else if Pqueue.pop_tagged_with t.marking f then incr n
    else continue := false
  done

let length t = Pqueue.length t.marking + Pqueue.length t.reduction

let is_empty t = Pqueue.is_empty t.marking && Pqueue.is_empty t.reduction

let tasks t =
  List.map snd (Pqueue.to_sorted_list t.marking)
  @ List.map snd (Pqueue.to_sorted_list t.reduction)

let iter_tasks t f =
  Pqueue.iter (fun _ task -> f task) t.marking;
  Pqueue.iter (fun _ task -> f task) t.reduction

let purge t pred =
  let before = length t in
  let keep _prio stamp task =
    if pred task then begin
      (match t.lineage with
      | Some l when stamp >= 0 -> Dgr_obs.Lineage.drop l stamp
      | _ -> ());
      false
    end
    else true
  in
  Pqueue.filter_tagged_in_place keep t.marking;
  Pqueue.filter_tagged_in_place keep t.reduction;
  let n = before - length t in
  (match t.recorder with
  | Some r when n > 0 ->
    Dgr_obs.Recorder.emit r (Dgr_obs.Event.Purge { pe = t.pe; count = n })
  | Some _ | None -> ());
  n

let reprioritize t =
  let changed = ref 0 in
  Pqueue.map_priorities
    (fun old task ->
      let p = priority_of t.policy t.g task in
      if p <> old then incr changed;
      p)
    t.reduction;
  !changed
