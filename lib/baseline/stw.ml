open Dgr_graph
open Dgr_task

type report = { marked : int; reclaimed : int; garbage : Vid.t list; purged_tasks : int; work : int }

let collect g ~purge_tasks =
  let snap = Snapshot.take g in
  let reachable =
    if Graph.has_root g then Dgr_analysis.Reach.reachable_from snap [ Graph.root g ]
    else Vid.Set.empty
  in
  let garbage =
    Graph.fold_live
      (fun acc v -> if Vid.Set.mem (Vertex.id v) reachable then acc else (Vertex.id v) :: acc)
      [] g
  in
  let gar_set = Vid.Set.of_list garbage in
  let purged =
    purge_tasks (fun task ->
        match task with
        | Task.Reduction r ->
          List.exists (fun v -> Vid.Set.mem v gar_set) (Task.reduction_endpoints r)
        | Task.Marking _ -> false)
  in
  (* Dangling requester entries, as in the concurrent restructure. *)
  Graph.iter_live
    (fun v ->
      if Vid.Set.mem (Vertex.id v) reachable then
        Vertex.retain_requesters v (fun r -> not (Vid.Set.mem r gar_set)))
    g;
  List.iter (Graph.release g) garbage;
  let marked = Vid.Set.cardinal reachable in
  {
    marked;
    reclaimed = List.length garbage;
    garbage;
    purged_tasks = purged;
    work = marked + Graph.vertex_count g;
  }
