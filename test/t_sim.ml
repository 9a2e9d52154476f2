(* Simulator plumbing: pools, network, engine behaviour. *)
open Dgr_graph
open Dgr_sim
open Dgr_task

let mk_graph () =
  let g = Graph.create ~num_pes:2 () in
  let b = Builder.add g (Label.Int 1) [] in
  let a = Builder.add_root g Label.If [ b ] in
  (g, a, b)

let test_pool_policy_bands () =
  let g, a, b = mk_graph () in
  let vital = Task.request ~src:a b Demand.Vital in
  let eager = Task.request ~src:a b Demand.Eager in
  let mark = Task.Marking (Task.Mark1 { v = a; par = Plane.Rootpar; ep = 0 }) in
  Alcotest.(check int) "marking always first" 0 (Pool.priority_of Pool.Dynamic g mark);
  Alcotest.(check bool) "flat ignores demand" true
    (Pool.priority_of Pool.Flat g vital = Pool.priority_of Pool.Flat g eager);
  Alcotest.(check bool) "by-demand separates" true
    (Pool.priority_of Pool.By_demand g vital < Pool.priority_of Pool.By_demand g eager);
  Alcotest.(check bool) "dynamic separates" true
    (Pool.priority_of Pool.Dynamic g vital < Pool.priority_of Pool.Dynamic g eager)

let test_pool_dynamic_uses_classification () =
  let g, a, b = mk_graph () in
  let eager = Task.request ~src:a b Demand.Eager in
  let before = Pool.priority_of Pool.Dynamic g eager in
  Vertex.set_sched_prior (Graph.vertex g b) @@ 3;
  let after = Pool.priority_of Pool.Dynamic g eager in
  Alcotest.(check bool) "classification upgrades an eager task" true (after < before);
  Vertex.set_sched_prior (Graph.vertex g b) @@ 1;
  Alcotest.(check bool) "demotion to reserve" true
    (Pool.priority_of Pool.Dynamic g eager > before)

let test_pool_vital_overrides_stale () =
  let g, a, b = mk_graph () in
  Vertex.set_sched_prior (Graph.vertex g b) @@ 1;
  let vital = Task.request ~src:a b Demand.Vital in
  Alcotest.(check int) "vital task ignores a stale reserve verdict" 2
    (Pool.priority_of Pool.Dynamic g vital)

let test_pool_source_inheritance () =
  let g, a, b = mk_graph () in
  Vertex.set_sched_prior (Graph.vertex g a) @@ 2;
  (* eager-region source: a vital-flagged task is still vital (upgrades
     travel by task), but an eager task from an eager source stays eager *)
  let eager = Task.request ~src:a b Demand.Eager in
  Alcotest.(check int) "eager inherits source class" 4 (Pool.priority_of Pool.Dynamic g eager)

let test_pool_fifo_and_separate_queues () =
  let g, a, b = mk_graph () in
  let pool = Pool.create Pool.Flat g in
  let r1 = Task.request ~src:a b Demand.Vital in
  let r2 = Task.request ~src:b a Demand.Vital in
  let m = Task.Marking (Task.Mark1 { v = a; par = Plane.Rootpar; ep = 0 }) in
  Pool.push pool r1;
  Pool.push pool m;
  Pool.push pool r2;
  Alcotest.(check int) "length counts both queues" 3 (Pool.length pool);
  (match Pool.pop_marking pool with
  | Some (Task.Marking _) -> ()
  | _ -> Alcotest.fail "pop_marking should find the mark task");
  Alcotest.(check bool) "pop is FIFO among equals" true (Pool.pop pool = Some r1);
  Alcotest.(check bool) "then r2" true (Pool.pop pool = Some r2);
  Alcotest.(check bool) "empty" true (Pool.is_empty pool)

let test_pool_pop_lends_slot_to_marking () =
  let g, a, _ = mk_graph () in
  let pool = Pool.create Pool.Dynamic g in
  Pool.push pool (Task.Marking (Task.Mark1 { v = a; par = Plane.Rootpar; ep = 0 }));
  match Pool.pop pool with
  | Some (Task.Marking _) -> ()
  | _ -> Alcotest.fail "an idle reduction slot should take marking work"

let test_pool_purge_and_reprioritize () =
  let g, a, b = mk_graph () in
  let pool = Pool.create Pool.Dynamic g in
  Pool.push pool (Task.request ~src:a b Demand.Eager);
  Pool.push pool (Task.request ~src:b a Demand.Eager);
  let n =
    Pool.purge pool (function
      | Task.Reduction (Task.Request { dst; _ }) -> dst = b
      | _ -> false)
  in
  Alcotest.(check int) "purged one" 1 n;
  Vertex.set_sched_prior (Graph.vertex g a) @@ 3;
  Alcotest.(check int) "reprioritize reports changes" 1 (Pool.reprioritize pool)

(* Full pop orderings, policy by policy, over one mixed push set. *)
let test_pool_policy_pop_orders () =
  let g, a, b = mk_graph () in
  (* a sits in the vital region, b was classified reserve last cycle *)
  Vertex.set_sched_prior (Graph.vertex g a) @@ 3;
  Vertex.set_sched_prior (Graph.vertex g b) @@ 1;
  let e_b = Task.request ~src:a b Demand.Eager in
  let v_b = Task.request ~src:a b Demand.Vital in
  let e_a = Task.request ~src:b a Demand.Eager in
  let m = Task.Marking (Task.Mark1 { v = a; par = Plane.Rootpar; ep = 0 }) in
  let pop_all policy =
    let pool = Pool.create policy g in
    List.iter (Pool.push pool) [ e_b; v_b; e_a; m ];
    List.init 4 (fun _ -> Option.get (Pool.pop pool))
  in
  (* Flat: pure FIFO among reduction tasks; the marking task only gets
     the idle slot at the end. *)
  Alcotest.(check bool) "flat is FIFO" true (pop_all Pool.Flat = [ e_b; v_b; e_a; m ]);
  (* By_demand: static demand only — vital first, eager FIFO, verdicts
     ignored. *)
  Alcotest.(check bool) "by-demand orders by static demand" true
    (pop_all Pool.By_demand = [ v_b; e_b; e_a; m ]);
  (* Dynamic: the cycle's verdicts reorder the eager tasks — e_a rides
     its destination's vital class ahead of e_b, which b's reserve
     verdict demotes behind everything. *)
  Alcotest.(check bool) "dynamic applies cycle verdicts" true
    (pop_all Pool.Dynamic = [ v_b; e_a; e_b; m ])

let test_network_ordering () =
  let net = Network.create () in
  let t1 = Task.request 1 Demand.Vital in
  let t2 = Task.request 2 Demand.Vital in
  let t3 = Task.request 3 Demand.Vital in
  Network.send net ~arrival:5 ~pe:0 t1;
  Network.send net ~arrival:3 ~pe:1 t2;
  Network.send net ~arrival:5 ~pe:0 t3;
  Alcotest.(check int) "in flight" 3 (Network.size net);
  Alcotest.(check bool) "nothing before time" true (Helpers.deliver net ~now:2 = []);
  Alcotest.(check bool) "delivers by arrival then send order" true
    (Helpers.deliver net ~now:5 = [ (1, t2); (0, t1); (0, t3) ]);
  Alcotest.(check int) "drained" 0 (Network.size net)

let test_network_purge () =
  let net = Network.create () in
  Network.send net ~arrival:1 ~pe:0 (Task.request 7 Demand.Vital);
  Network.send net ~arrival:1 ~pe:0 (Task.request 8 Demand.Vital);
  let n =
    Network.purge net (function
      | Task.Reduction (Task.Request { dst; _ }) -> dst = 7
      | _ -> false)
  in
  Alcotest.(check int) "one purged" 1 n;
  Alcotest.(check int) "one left" 1 (Network.size net)

let test_network_purge_records_destination () =
  (* The purge trace must name the PE each expunged task was bound for
     (not a blanket -1), one event per destination, ascending. *)
  let r = Dgr_obs.Recorder.create ~num_pes:4 () in
  let net = Network.create ~recorder:r () in
  Network.send net ~arrival:1 ~pe:2 (Task.request 7 Demand.Vital);
  Network.send net ~arrival:1 ~pe:0 (Task.request 8 Demand.Vital);
  Network.send net ~arrival:2 ~pe:2 (Task.request 9 Demand.Vital);
  Network.send net ~arrival:2 ~pe:1 (Task.request 10 Demand.Vital);
  let n =
    Network.purge net (function
      | Task.Reduction (Task.Request { dst; _ }) -> dst <> 10
      | _ -> false)
  in
  Alcotest.(check int) "three purged" 3 n;
  let purge_events =
    List.filter_map
      (function
        | { Dgr_obs.Event.kind = Dgr_obs.Event.Purge { pe; count }; _ } -> Some (pe, count)
        | _ -> None)
      (Dgr_obs.Recorder.events r)
  in
  Alcotest.(check (list (pair int int))) "per-PE purge events, real destinations"
    [ (0, 1); (2, 2) ] purge_events

let test_engine_local_vs_remote_latency () =
  (* Two vertices on different PEs: the respond crosses the boundary. *)
  let g = Graph.create ~num_pes:2 () in
  let b = Graph.alloc ~pe:1 g (Label.Int 7) in
  let a = Graph.alloc ~pe:0 g Label.Ind in
  Vertex.connect a (Vertex.id b);
  Graph.set_root g (Vertex.id a);
  let config = Engine.Config.make ~num_pes:2 ~latency:9 ~gc:Engine.No_gc () in
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  Engine.inject_root_demand e;
  let (_ : int) = Engine.run ~max_steps:200 e in
  Alcotest.(check bool) "finished" true (Engine.finished e);
  Alcotest.(check bool) "remote messages counted" true
    ((Engine.metrics e).Metrics.remote_messages >= 1)

let test_engine_quiescence_no_gc () =
  let g = Graph.create () in
  let (_ : Vid.t) = Builder.add_root g (Label.Int 3) [] in
  let config = Engine.Config.make ~gc:Engine.No_gc () in
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  Engine.inject_root_demand e;
  let steps = Engine.run e in
  Alcotest.(check bool) "finished fast" true (Engine.finished e && steps < 20);
  Alcotest.(check bool) "quiescent" true (Engine.quiescent e)

let test_engine_inject_and_locate () =
  let g, a, b = mk_graph () in
  ignore b;
  let config = Engine.Config.make ~num_pes:2 ~gc:Engine.No_gc () in
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  Engine.inject e (Task.request a Demand.Eager);
  Alcotest.(check int) "one pending" 1 (List.length (Engine.pending_tasks e));
  Alcotest.(check int) "locatable" 1
    (List.length (Engine.locate_task e (fun _ -> true)))

let test_metrics_pp () =
  let m = Metrics.create () in
  Metrics.record_pause m 5;
  Metrics.record_pause m 9;
  Alcotest.(check int) "total pause" 14 m.Metrics.total_pause_steps;
  let s = Format.asprintf "%a" Metrics.pp_summary m in
  Alcotest.(check bool) "summary renders" true (String.length s > 10)

let suite =
  [
    Alcotest.test_case "pool priority bands" `Quick test_pool_policy_bands;
    Alcotest.test_case "dynamic uses marking classification" `Quick
      test_pool_dynamic_uses_classification;
    Alcotest.test_case "vital overrides stale verdicts" `Quick test_pool_vital_overrides_stale;
    Alcotest.test_case "eager inherits source class" `Quick test_pool_source_inheritance;
    Alcotest.test_case "fifo ties, separate queues" `Quick test_pool_fifo_and_separate_queues;
    Alcotest.test_case "idle slots lend to marking" `Quick test_pool_pop_lends_slot_to_marking;
    Alcotest.test_case "pool purge / reprioritize" `Quick test_pool_purge_and_reprioritize;
    Alcotest.test_case "policy pop orders" `Quick test_pool_policy_pop_orders;
    Alcotest.test_case "network ordering" `Quick test_network_ordering;
    Alcotest.test_case "network purge" `Quick test_network_purge;
    Alcotest.test_case "network purge records destination" `Quick
      test_network_purge_records_destination;
    Alcotest.test_case "remote latency accounting" `Quick test_engine_local_vs_remote_latency;
    Alcotest.test_case "quiescence without gc" `Quick test_engine_quiescence_no_gc;
    Alcotest.test_case "inject and locate" `Quick test_engine_inject_and_locate;
    Alcotest.test_case "metrics" `Quick test_metrics_pp;
  ]

(* Delivery jitter: deterministic per seed; results invariant. *)
let jitter_suite =
  let run ~jitter ~seed =
    let config =
      Engine.Config.make ~jitter ~seed
        ~gc:(Engine.Concurrent { deadlock_every = 2; idle_gap = 10 })
        ()
    in
    let g, templates =
      Dgr_lang.Compile.load_string ~num_pes:4 (Dgr_lang.Prelude.fib 9)
    in
    let e = Engine.create ~config g templates in
    Engine.inject_root_demand e;
    let (_ : int) = Engine.run ~max_steps:200_000 e in
    e
  in
  [
    Alcotest.test_case "jittered runs still compute the result" `Quick (fun () ->
        List.iter
          (fun seed ->
            let e = run ~jitter:0.3 ~seed in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d" seed)
              true
              (Engine.result e = Some (Label.V_int 34));
            Alcotest.(check (list string)) "valid" [] (Validate.check (Engine.graph e)))
          [ 1; 2; 3; 4; 5 ]);
    Alcotest.test_case "jitter is deterministic per seed" `Quick (fun () ->
        let fingerprint e =
          ( Engine.now e,
            (Engine.metrics e).Metrics.reduction_executed,
            (Engine.metrics e).Metrics.remote_messages )
        in
        let a = fingerprint (run ~jitter:0.5 ~seed:7) in
        let b = fingerprint (run ~jitter:0.5 ~seed:7) in
        let c = fingerprint (run ~jitter:0.5 ~seed:8) in
        Alcotest.(check bool) "same seed, same run" true (a = b);
        Alcotest.(check bool) "different seed, different schedule" true (a <> c));
    Alcotest.test_case "deadlock detected under jitter" `Quick (fun () ->
        let config =
          Engine.Config.make ~jitter:0.4 ~seed:11
            ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 10 })
            ()
        in
        let g, templates = Dgr_lang.Compile.load_string Dgr_lang.Prelude.deadlock in
        let e = Engine.create ~config g templates in
        Engine.inject_root_demand e;
        let found t =
          match Engine.cycle t with
          | Some c -> not (Vid.Set.is_empty (Dgr_core.Cycle.deadlocked_ever c))
          | None -> false
        in
        let (_ : int) = Engine.run ~max_steps:50_000 ~stop:found e in
        Alcotest.(check bool) "found" true (found e));
  ]
