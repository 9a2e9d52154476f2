(* Benchmark harness.

   Usage:
     bench/main.exe            -- all experiment tables + micro
     bench/main.exe e4         -- one experiment table
     bench/main.exe micro      -- bechamel micro-benchmarks only
     bench/main.exe tables     -- experiment tables only
     bench/main.exe list       -- registered experiment ids

   The experiment tables regenerate the paper's figures/claims — the set
   comes from the {!Dgr_harness.Experiments.all} registry, so a new
   experiment shows up here with no change to this file (see
   EXPERIMENTS.md). The micro-benchmarks measure the marking core and
   the per-task hot data structures (task heap, vertex lookup) in host
   wall-clock, not simulator steps; `dgr bench` is the macro suite
   (whole-machine throughput, BENCH.json). *)

open Dgr_graph
open Dgr_util
open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks: the marking algorithms on static random graphs.   *)
(* ------------------------------------------------------------------ *)

let graph_of_size n seed =
  let spec =
    {
      Builder.live = n;
      garbage = n / 4;
      free_pool = 16;
      avg_degree = 2.0;
      cycle_bias = 0.2;
    }
  in
  Builder.random_with_requests (Rng.create seed) spec

let bench_mark variant name g =
  Test.make ~name
    (Staged.stage (fun () ->
         Graph.reset_plane g Plane.MR;
         Graph.reset_plane g Plane.MT;
         ignore (Dgr_core.Sync_engine.mark g variant ~seeds:[ Graph.root g ])))

let bench_oracle name g =
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Dgr_analysis.Reach.compute (Snapshot.take g) ~tasks:[])))

let bench_mutator name g =
  (* a burst of cooperating mutations under an in-flight M_R *)
  Test.make ~name
    (Staged.stage (fun () ->
         Graph.reset_plane g Plane.MR;
         Graph.reset_plane g Plane.MT;
         let engine = Dgr_core.Sync_engine.create g in
         let run =
           Dgr_core.Sync_engine.start engine Dgr_core.Run.Priority ~seeds:[ Graph.root g ]
         in
         let mut = Dgr_core.Sync_engine.mutator engine in
         let rng = Rng.create 5 in
         let live = Graph.live_vids g in
         let mutate _ =
           if Rng.int rng 4 = 0 then begin
             let a = Rng.choose_list rng live in
             match Graph.children g a with
             | [] -> ()
             | bs -> (
               let b = Rng.choose_list rng bs in
               match Graph.children g b with
               | [] -> ()
               | cs -> Dgr_core.Mutator.add_reference mut ~a ~b ~c:(Rng.choose_list rng cs))
           end
         in
         ignore (Dgr_core.Sync_engine.drain ~interleave:mutate engine);
         ignore run))

let bench_reduction name source =
  Test.make ~name
    (Staged.stage (fun () ->
         let g, templates = Dgr_lang.Compile.load_string ~num_pes:4 source in
         let e = Dgr_sim.Engine.create g templates in
         Dgr_sim.Engine.inject_root_demand e;
         ignore (Dgr_sim.Engine.run ~max_steps:100_000 e)))

(* The task-pool hot path: one add and one pop at a steady depth of 4k
   boxed tasks, priorities drawn from the pool's 0..5 range. *)
let bench_pqueue_pool name =
  let q = Pqueue.create () in
  let tasks =
    Array.init 64 (fun i ->
        Dgr_task.Task.Reduction
          (Dgr_task.Task.Request { src = Some i; dst = i + 1; demand = Demand.Eager; key = i }))
  in
  let k = ref 0 in
  let add () =
    incr k;
    Pqueue.add_tagged q ((!k * 7919) mod 6) ~tag:!k tasks.(!k land 63)
  in
  for _ = 1 to 4_096 do
    add ()
  done;
  let sink = ref 0 in
  let f _task tag = sink := tag in
  Test.make ~name
    (Staged.stage (fun () ->
         add ();
         ignore (Pqueue.pop_tagged_with q f)))

(* Vertex lookup by vid over a storm-sized partitioned graph (62.5k
   vertices, 8 homes), vids visited in a shuffled order. *)
let bench_graph_vertex name =
  let spec =
    { Builder.live = 50_000; garbage = 12_500; free_pool = 0; avg_degree = 2.5; cycle_bias = 0.15 }
  in
  let g = Builder.random ~num_pes:8 (Rng.create 1) spec in
  Graph.partition g ~pes:8;
  let vids = Array.of_list (List.map Vertex.id (Graph.fold_live (fun acc v -> v :: acc) [] g)) in
  Rng.shuffle (Rng.create 2) vids;
  let i = ref 0 and sink = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         i := (!i + 1) mod Array.length vids;
         sink := Vertex.pe (Graph.vertex g vids.(!i))))

let model_tests () =
  let sizes = [ 1_000; 4_000; 16_000 ] in
  let marking =
    List.concat_map
      (fun n ->
        let g = graph_of_size n 42 in
        [
          bench_mark Dgr_core.Run.Basic (Printf.sprintf "mark1/%dk" (n / 1000)) g;
          bench_mark Dgr_core.Run.Priority (Printf.sprintf "mark2/%dk" (n / 1000)) g;
          bench_oracle (Printf.sprintf "oracle/%dk" (n / 1000)) g;
        ])
      sizes
  in
  let extras =
    [
      bench_mutator "mutator-coop/4k" (graph_of_size 4_000 7);
      bench_reduction "engine-fib10" (Dgr_lang.Prelude.fib 10);
      bench_reduction "engine-sumrange12" (Dgr_lang.Prelude.sum_range 12);
    ]
  in
  marking @ extras

let hot_path_tests () =
  [ bench_pqueue_pool "pqueue-pool/4k"; bench_graph_vertex "graph-vertex/62k" ]

(* Each group runs under its own config, and its fixtures are built only
   when its turn comes, on a freshly compacted heap, so no group
   measures on a heap inflated by another's. The hot-path group
   allocates nothing per run and skips bechamel's per-sample GC
   stabilization: a full compaction over a 62.5k-vertex heap before
   every sample eats the quota and leaves each sample starting on a
   cold cache (the add/pop read 4-17 us instead of ~80 ns). *)
let micro_groups =
  [
    (Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) (), model_tests);
    ( Benchmark.cfg ~stabilize:false ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) (),
      hot_path_tests );
  ]

let run_micro () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let clock = Instance.monotonic_clock in
  let table =
    Table.create ~title:"micro-benchmarks (host wall clock)"
      ~columns:[ ("benchmark", Table.Left); ("time/run", Table.Right) ]
  in
  let rows =
    List.concat_map
      (fun (cfg, tests) ->
        Gc.compact ();
        let raw = Benchmark.all cfg [ clock ] (Test.make_grouped ~name:"dgr" (tests ())) in
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) (Analyze.all ols clock raw) [])
      micro_groups
  in
  List.iter
    (fun (name, ols) ->
      let cell =
        match Analyze.OLS.estimates ols with
        | Some (est :: _) ->
          if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        | Some [] | None -> "-"
      in
      Table.add_row table [ name; cell ])
    (List.sort compare rows);
  Table.print table

(* ------------------------------------------------------------------ *)

let () =
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match arg with
  | "micro" -> run_micro ()
  | "tables" -> List.iter (fun (id, _, _) -> Dgr_harness.Experiments.run id)
                  Dgr_harness.Experiments.all
  | "list" ->
    List.iter
      (fun (id, { Dgr_harness.Experiments.title; paper_ref }, _) ->
        Printf.printf "%-4s %s (%s)\n" id title paper_ref)
      Dgr_harness.Experiments.all
  | "all" ->
    List.iter (fun (id, _, _) -> Dgr_harness.Experiments.run id)
      Dgr_harness.Experiments.all;
    run_micro ()
  | id -> Dgr_harness.Experiments.run id
