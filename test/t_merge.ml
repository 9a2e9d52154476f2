(* The step barrier's merge machinery: dirty-set absorption, the
   destination-sharded mailbox flush, the empty-step fast path, and the
   chunk-linked recorder drain. Each test pins a byte-equivalence the
   sharded engine's determinism proof leans on. *)
open Dgr_util
open Dgr_obs
open Dgr_sim
open Dgr_task
open Dgr_graph

(* --- dirty-set absorption ------------------------------------------- *)

(* Per-PE histograms merged through different intermediate groupings —
   the shapes domains=1/2/4 produce — must yield byte-identical JSON:
   absorb is associative, and the dirty-set rewrite must not have
   changed that. *)
let test_absorb_associativity () =
  let pes = 8 in
  let fill seed =
    let rng = Rng.create seed in
    let hs = Array.init pes (fun _ -> Hist.create ()) in
    Array.iter
      (fun h ->
        for _ = 1 to Rng.int rng 200 do
          Hist.add h (Rng.int rng 5000)
        done)
      hs;
    hs
  in
  let merge_groups groups =
    (* absorb each PE group into a per-group sink, then the sinks into
       the main histogram in ascending group order *)
    let main = Hist.create () in
    List.iter
      (fun group ->
        let sink = Hist.create () in
        List.iter (fun h -> Hist.absorb ~into:sink h) group;
        Hist.absorb ~into:main sink)
      groups;
    main
  in
  let split n hs =
    let per = pes / n in
    List.init n (fun g -> List.init per (fun i -> hs.((g * per) + i)))
  in
  let j1 = Hist.to_json (merge_groups (split 1 (fill 42))) in
  let j2 = Hist.to_json (merge_groups (split 2 (fill 42))) in
  let j4 = Hist.to_json (merge_groups (split 4 (fill 42))) in
  Alcotest.(check string) "domains=2 grouping" j1 j2;
  Alcotest.(check string) "domains=4 grouping" j1 j4;
  (* absorbed sources are cleared, so a second merge finds nothing *)
  let hs = fill 7 in
  let first = Hist.to_json (merge_groups (split 4 hs)) in
  let again = merge_groups (split 4 hs) in
  Alcotest.(check bool) "non-empty merge" true (first <> Hist.to_json (Hist.create ()));
  Alcotest.(check int) "sources cleared" 0 (Hist.count again)

(* --- destination-sharded flush -------------------------------------- *)

(* One randomized post schedule, two networks: the serial flush — rebuilt
   here as [Network.send] over the schedule's entries, ascending src, post
   order within one — and the sharded plan/group/finalize path over
   mailboxes holding the same entries must leave byte-identical networks:
   same staged entries, same counters, same coalesce callbacks in the same
   order. Duplicated marks exercise in-batch coalescing. *)
let random_schedule ~pes ~posts seed =
  let rng = Rng.create seed in
  List.init posts (fun _ ->
      let src = Rng.int rng pes in
      let dst = Rng.int rng pes in
      let arrival = 4 + Rng.int rng 3 in
      let task =
        if Rng.int rng 3 = 0 then
          Task.Reduction
            (Task.Request
               {
                 src = Some (Rng.int rng 100);
                 dst = Rng.int rng 50;
                 demand = Demand.Vital;
                 key = Rng.int rng 50;
               })
        else
          (* small vid range forces duplicate marks into shared frames *)
          Task.Marking (Task.Mark1 { v = Rng.int rng 12; par = Plane.Rootpar; ep = 0 })
      in
      (src, dst, arrival, task))

let flush_pair ~shards schedule pes =
  let fired = ref [] in
  let net = Network.create () in
  Network.set_on_coalesce net (fun ~pe m -> fired := (pe, m) :: !fired);
  (match shards with
  | None ->
    for src = 0 to pes - 1 do
      List.iter
        (fun (s, dst, arrival, task) ->
          if s = src then Network.send ~src ~lin:(-1) ~depth:0 net ~arrival ~pe:dst task)
        schedule
    done
  | Some k ->
    let mbs = Array.init pes (fun _ -> Network.Mailbox.create ()) in
    List.iter
      (fun (src, dst, arrival, task) ->
        Network.Mailbox.post mbs.(src) ~lin:(-1) ~depth:0 ~arrival ~pe:dst task)
      schedule;
    Network.flush_shard_plan net mbs;
    for s = 0 to k - 1 do
      Network.flush_shard_group net mbs ~lo:(s * pes / k) ~hi:((s + 1) * pes / k)
    done;
    Network.flush_shard_finalize net mbs);
  (Network.entries net, Network.tasks_sent net, Network.marks_coalesced net, List.rev !fired)

let test_sharded_flush_equivalence () =
  let pes = 8 in
  List.iter
    (fun seed ->
      let schedule = random_schedule ~pes ~posts:300 seed in
      let serial = flush_pair ~shards:None schedule pes in
      List.iter
        (fun k ->
          let entries_s, sent_s, coal_s, fired_s = serial in
          let entries_p, sent_p, coal_p, fired_p = flush_pair ~shards:(Some k) schedule pes in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: staged entries equal at %d shards" seed k)
            true
            (entries_s = entries_p);
          Alcotest.(check int) "tasks_sent" sent_s sent_p;
          Alcotest.(check int) "marks_coalesced" coal_s coal_p;
          Alcotest.(check bool) "coalesce callbacks" true (fired_s = fired_p);
          Alcotest.(check bool) "coalescing exercised" true (coal_s > 0))
        [ 1; 2; 4 ])
    [ 3; 17; 29 ];
  (* The plan's precondition: nothing staged since the last tick (a
     forming frame could match a mailbox entry's key). *)
  let net = Network.create () in
  Network.send ~src:0 net ~arrival:4 ~pe:1 (Task.request 3 Demand.Vital);
  Alcotest.check_raises "plan over a non-empty staged area"
    (Invalid_argument "Network.flush_shard_plan: staged area not empty") (fun () ->
      Network.flush_shard_plan net (Array.init pes (fun _ -> Network.Mailbox.create ())))

(* --- empty-step fast path ------------------------------------------- *)

(* An idle step's merge touches nothing: absorbing empty shard sinks and
   planning a flush over empty mailboxes must be allocation-free (after
   one warm-up call that sizes the plan arrays). *)
let test_empty_merge_alloc_free () =
  let pes = 8 in
  let main_h = Hist.create () and sub_h = Hist.create () in
  let main_m = Metrics.create () and sub_m = Metrics.create () in
  let net = Network.create () in
  let mbs = Array.init pes (fun _ -> Network.Mailbox.create ()) in
  let empty_merge () =
    Hist.absorb ~into:main_h sub_h;
    Metrics.absorb main_m sub_m;
    Network.flush_shard_plan net mbs;
    Network.flush_shard_group net mbs ~lo:0 ~hi:pes;
    Network.flush_shard_finalize net mbs
  in
  empty_merge ();
  (* warmed up *)
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    empty_merge ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d empty merges" words iters)
    true
    (words < 2.0 *. float_of_int iters)

(* A warm mailbox (its columns already sized by an earlier step) posts
   without allocating: the entry is five array writes, no record and no
   option boxes. *)
let test_mailbox_post_alloc_free () =
  let net = Network.create () in
  let mbs = Array.init 8 (fun _ -> Network.Mailbox.create ()) in
  let mb = mbs.(0) in
  let task =
    Task.Reduction (Task.Request { src = Some 1; dst = 2; demand = Demand.Vital; key = 2 })
  in
  let posts = 1_000 in
  let fill () =
    for i = 1 to posts do
      Network.Mailbox.post mb ~lin:i ~depth:1 ~arrival:(4 + (i land 1)) ~pe:(i land 7) task
    done
  in
  fill ();
  Network.flush_shard_plan net mbs;
  Network.flush_shard_group net mbs ~lo:0 ~hi:8;
  Network.flush_shard_finalize net mbs;
  let w0 = Gc.minor_words () in
  fill ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "posted" posts (Network.Mailbox.length mb);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d warm posts" words posts)
    true (words < 16.0)

(* A warm task heap (its columns and slab already sized) adds and pops
   without allocating: sifting moves ints, and the pop hands the value
   to a callback instead of building an option. *)
let test_pqueue_round_alloc_free () =
  let q = Pqueue.create () in
  let tasks =
    Array.init 64 (fun i ->
        Task.Reduction (Task.Request { src = Some i; dst = i + 1; demand = Demand.Eager; key = i }))
  in
  let popped = ref 0 in
  let f _task tag = popped := !popped + tag in
  let round () =
    for i = 1 to 4_096 do
      Pqueue.add_tagged q ((i * 7919) land 15) ~tag:1 tasks.(i land 63)
    done;
    while Pqueue.pop_tagged_with q f do
      ()
    done
  in
  round ();
  let w0 = Gc.minor_words () in
  round ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "popped every entry" 8_192 !popped;
  Alcotest.(check (float 0.0)) "minor words over a warm add/pop round" 0.0 words

(* Vertex lookup is O(1) arithmetic over the segment's chunks — no
   loop, no (chunk, offset) tuple — on the dense prefix and the
   partitioned per-home segments alike. *)
let test_graph_vertex_alloc_free () =
  let spec =
    { Builder.live = 50_000; garbage = 12_500; free_pool = 0; avg_degree = 2.5; cycle_bias = 0.15 }
  in
  let g = Builder.random ~num_pes:8 (Rng.create 1) spec in
  Graph.partition g ~pes:8;
  for pe = 0 to 7 do
    for _ = 1 to 700 do
      ignore (Graph.alloc ~from:pe g (Label.Prim Label.Add))
    done
  done;
  let n = Graph.vertex_count g in
  Alcotest.(check bool) "62.5k vertices and fresh slots" true (n >= 62_500 + 5_600);
  let vids = Array.make n 0 and k = ref 0 in
  Graph.iter_all
    (fun v ->
      vids.(!k) <- Vertex.id v;
      incr k)
    g;
  let pes = ref 0 in
  let sweep () =
    for i = 0 to n - 1 do
      pes := !pes + Vertex.pe (Graph.vertex g (Array.unsafe_get vids i))
    done
  in
  sweep ();
  let w0 = Gc.minor_words () in
  sweep ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) (Printf.sprintf "minor words over %d lookups" n) 0.0 words

(* --- the stuck set --------------------------------------------------- *)

(* The storm-tree-8k machine of [dgr bench]: a random operator graph
   with no templates, so over a thousand vertices get stuck (unknown
   function, arity errors, malformed ifs, dangling indirections). *)
let storm_engine_with ~gc ~domains =
  let spec =
    { Builder.live = 8_000; garbage = 2_000; free_pool = 64; avg_degree = 2.5; cycle_bias = 0.15 }
  in
  let config =
    Engine.Config.make ~num_pes:8 ~gc ~heap_size:None ~marking:Dgr_core.Cycle.Tree ~seed:11
      ~domains ()
  in
  let g = Builder.random ~num_pes:8 (Rng.create 11) spec in
  let e = Engine.create ~config g (Dgr_reduction.Template.create_registry ()) in
  Engine.inject_root_demand e;
  List.iteri
    (fun i v -> if i mod 8 = 0 then Engine.inject e (Task.request v Demand.Eager))
    (Graph.live_vids g);
  e

let storm_engine ~domains =
  storm_engine_with ~gc:(Engine.Concurrent { deadlock_every = 1; idle_gap = 30 }) ~domains

let stuck_digest l =
  Digest.to_hex
    (Digest.string (String.concat ";" (List.map (fun (v, r) -> Printf.sprintf "%d:%s" v r) l)))

(* 1,200 steps stop before the first restructure, so nothing has been
   reclaimed yet. The count and digest were taken from the list-based
   stuck set this one replaced (newest-first list, merged with a linear
   [mem_assoc] per report), sorted by vid: same vids, same first
   reasons. *)
let test_stuck_set_across_domains () =
  let sets =
    List.map
      (fun domains ->
        let e = storm_engine ~domains in
        let (_ : int) = Engine.run ~max_steps:1_200 ~stop:(fun _ -> false) e in
        Engine.dispose e;
        Alcotest.(check int) "no cycle completed yet" 0 (Engine.metrics e).Metrics.cycles_completed;
        let red = Engine.reducer e in
        Alcotest.(check int) "count" (List.length (Dgr_reduction.Reducer.stuck red))
          (Dgr_reduction.Reducer.stuck_count red);
        (domains, Dgr_reduction.Reducer.stuck red))
      [ 1; 2; 4 ]
  in
  let one = List.assoc 1 sets in
  Alcotest.(check int) "stuck vertices" 1257 (List.length one);
  Alcotest.(check string) "the old list's vids and reasons" "96d72382487aba8da2953d94e6d700f7"
    (stuck_digest one);
  List.iter
    (fun (d, set) ->
      Alcotest.(check bool) (Printf.sprintf "domains=%d stuck set" d) true (set = one))
    sets

(* Reclaimed vertices leave the set: through two collection cycles no
   freed vertex is ever held, and the first cycle's garbage did hold
   stuck vertices (eager requests were sprayed over the garbage too). *)
let test_stuck_set_bounded () =
  let e = storm_engine ~domains:1 in
  let g = Engine.graph e in
  let red = Engine.reducer e in
  let cycles () = (Engine.metrics e).Metrics.cycles_completed in
  let before_first = ref 0 in
  while cycles () < 2 do
    let c = cycles () in
    if c = 0 then before_first := Dgr_reduction.Reducer.stuck_count red;
    Engine.step e;
    if cycles () > c then
      List.iter
        (fun (v, _) ->
          Alcotest.(check bool) (Printf.sprintf "cycle %d: v%d is live" (c + 1) v) false
            (Graph.is_free g v))
        (Dgr_reduction.Reducer.stuck red)
  done;
  Alcotest.(check int) "storm-tree-8k stuck before the first cycle" 1257 !before_first;
  Alcotest.(check int) "reclaimed stuck vertices dropped" 1032
    (Dgr_reduction.Reducer.stuck_count red)

(* The same under the stop-the-world baseline: each collection's
   reclaimed vertices leave the set too. The first collection falls
   after the garbage's eager requests got stuck (the concurrent cycle
   above drops the same 225); the second reclaims nothing. *)
let test_stw_stuck_set_bounded () =
  let e = storm_engine_with ~gc:(Engine.Stop_the_world { every = 1500 }) ~domains:1 in
  let g = Engine.graph e in
  let red = Engine.reducer e in
  let collections () = (Engine.metrics e).Metrics.stw_collections in
  let dropped = ref [] in
  while collections () < 2 do
    let c = collections () in
    let before = Dgr_reduction.Reducer.stuck red in
    Engine.step e;
    if collections () > c then begin
      List.iter
        (fun (v, _) ->
          Alcotest.(check bool) (Printf.sprintf "collection %d: v%d is live" (c + 1) v) false
            (Graph.is_free g v))
        (Dgr_reduction.Reducer.stuck red);
      dropped := List.length (List.filter (fun (v, _) -> Graph.is_free g v) before) :: !dropped
    end
  done;
  Alcotest.(check (list int)) "stuck garbage dropped by each collection" [ 225; 0 ]
    (List.rev !dropped)

(* The set keeps the first reason; a per-PE reducer's report reaches
   the shared set only at [absorb] and is skipped once merged; a
   vertex reclaimed and recycled is reported afresh with its new
   reason. *)
let test_stuck_first_report_and_recycling () =
  let module R = Dgr_reduction.Reducer in
  let g = Graph.create () in
  let v = Builder.add_root g (Label.Apply "nope") [] in
  let mut = Dgr_core.Mutator.create ~spawn:(fun _ -> ()) g in
  let templates = Dgr_reduction.Template.create_registry () in
  let owner = R.create ~graph:g ~mut ~templates ~send:ignore () in
  let pe = R.create ~stuck_of:owner ~graph:g ~mut ~templates ~send:ignore () in
  let request () = Task.Request { src = None; dst = v; demand = Demand.Vital; key = v } in
  R.execute pe (request ());
  Alcotest.(check int) "not merged before the barrier" 0 (R.stuck_count owner);
  R.execute pe (request ());
  Alcotest.(check int) "one fresh report" 1 (Vec.length pe.R.fresh_stuck);
  R.absorb owner pe;
  Alcotest.(check (list (pair int string))) "merged" [ (v, "unknown function nope") ]
    (R.stuck owner);
  R.execute pe (request ());
  Alcotest.(check int) "already stuck: no fresh report" 0 (Vec.length pe.R.fresh_stuck);
  Vertex.set_label (Graph.vertex g v) Label.Ind;
  R.execute owner (request ());
  Alcotest.(check (list (pair int string))) "first reason kept" [ (v, "unknown function nope") ]
    (R.stuck owner);
  (* reclaim and recycle the slot *)
  Graph.release g v;
  R.forget_stuck owner v;
  Alcotest.(check int) "forgotten" 0 (R.stuck_count owner);
  let w = Vertex.id (Graph.alloc g (Label.Prim Label.Add)) in
  Alcotest.(check int) "slot recycled" v w;
  R.execute owner (Task.Request { src = None; dst = w; demand = Demand.Vital; key = w });
  Alcotest.(check (list (pair int string))) "reported again"
    [ (w, "add applied to 0 args (arity 2)") ]
    (R.stuck owner)

(* --- a failing shard ---------------------------------------------- *)

(* The storm machine with a mutator guard that fails on every vertex
   homed on PEs [lo, hi): run until a step raises, and return what it
   raised. At [domains = 2], PEs 4-7 run on the worker domain. *)
let failing_step ~domains ~lo ~hi =
  let e = storm_engine ~domains in
  let g = Engine.graph e in
  (Engine.mutator e).Dgr_core.Mutator.guard <-
    (fun v ->
      let pe = Vertex.pe (Graph.vertex g v) in
      if pe >= lo && pe < hi then failwith "boom");
  let raised = ref None in
  while !raised = None && Engine.now e < 100 do
    try Engine.step e with exn -> raised := Some exn
  done;
  (* joins the workers: hangs if a shard never checked in *)
  Engine.dispose e;
  !raised

let test_shard_failure_surfaces () =
  let boom = function Some (Failure m) -> m = "boom" | _ -> false in
  (* off the main domain: the worker checks in, the main re-raises *)
  (match failing_step ~domains:2 ~lo:4 ~hi:8 with
  | Some (Engine.Shard_failed { shard; lo; hi; exn; step = _ }) ->
    Alcotest.(check (list int)) "worker shard and its PEs" [ 1; 4; 8 ] [ shard; lo; hi ];
    Alcotest.(check bool) "the shard's exception" true (boom (Some exn))
  | Some exn -> Alcotest.failf "unexpected %s" (Printexc.to_string exn)
  | None -> Alcotest.fail "no exception");
  (* shard 0 on the main domain: it still waits for the worker *)
  (match failing_step ~domains:2 ~lo:0 ~hi:4 with
  | Some (Engine.Shard_failed { shard = 0; lo = 0; hi = 4; _ }) -> ()
  | Some exn -> Alcotest.failf "unexpected %s" (Printexc.to_string exn)
  | None -> Alcotest.fail "no exception");
  (* one domain: the same guard raises straight out of the step *)
  Alcotest.(check bool) "domains=1" true (boom (failing_step ~domains:1 ~lo:4 ~hi:8))

(* --- chunk-linked recorder drain ------------------------------------ *)

let exec pe vid = Event.Execute { kind = Event.Mark; pe; vid; lin = -1 }

(* Drive two (main, subs) recorder pairs through the same multi-step
   emission schedule — sub events drained at each barrier, controller
   events emitted directly on the main recorder in between — one pair
   with the re-emitting drain, one with the chunk-linking drain. Events,
   stamps, lengths and drop counts must match byte for byte. A small
   main capacity pushes eviction across the ring/chunk boundary. *)
let drive ~capacity ~drain =
  let pes = 3 in
  let main = Recorder.create ~capacity ~num_pes:pes () in
  let subs = Array.init pes (fun _ -> Recorder.create ~capacity:256 ~num_pes:pes ()) in
  let rng = Rng.create 99 in
  for step = 0 to 29 do
    Recorder.set_now main step;
    Array.iter (fun s -> Recorder.set_now s step) subs;
    (* per-PE work, buffered in the sub-recorders *)
    Array.iteri
      (fun pe s ->
        for _ = 1 to Rng.int rng 8 do
          Recorder.emit s (exec pe (Rng.int rng 100))
        done)
      subs;
    (* the barrier: drain ascending, then controller-side events *)
    Array.iter (fun s -> drain ~src:s ~dst:main) subs;
    Recorder.emit main (Event.Phase { phase = Event.Mark_root; cycle = step; wave = step })
  done;
  main

let test_chunk_drain_order () =
  List.iter
    (fun capacity ->
      let copied = drive ~capacity ~drain:Recorder.drain_into in
      let linked = drive ~capacity ~drain:Recorder.absorb_chunks in
      Alcotest.(check int)
        (Printf.sprintf "cap %d: emitted" capacity)
        (Recorder.emitted copied) (Recorder.emitted linked);
      Alcotest.(check int) "length" (Recorder.length copied) (Recorder.length linked);
      Alcotest.(check int) "dropped" (Recorder.dropped copied) (Recorder.dropped linked);
      let evs r =
        List.map
          (fun (e : Event.t) -> (e.Event.step, e.Event.seq, Format.asprintf "%a" Event.pp e))
          (Recorder.events r)
      in
      Alcotest.(check bool) "event streams identical" true (evs copied = evs linked))
    (* never-wrapping, and wrapping mid-chunk *)
    [ 65536; 64; 17 ]

let suite =
  [
    Alcotest.test_case "hist absorb is associative across domain groupings" `Quick
      test_absorb_associativity;
    Alcotest.test_case "sharded flush = serial flush, byte for byte" `Quick
      test_sharded_flush_equivalence;
    Alcotest.test_case "empty-step merge allocates nothing" `Quick
      test_empty_merge_alloc_free;
    Alcotest.test_case "chunk-linked drain = copied drain" `Quick
      test_chunk_drain_order;
    Alcotest.test_case "warm mailbox post allocates nothing" `Quick
      test_mailbox_post_alloc_free;
    Alcotest.test_case "stuck set equal at 1/2/4 domains, = old list" `Quick
      test_stuck_set_across_domains;
    Alcotest.test_case "stuck set drops reclaimed vertices" `Quick test_stuck_set_bounded;
    Alcotest.test_case "stuck set drops stop-the-world garbage" `Quick
      test_stw_stuck_set_bounded;
    Alcotest.test_case "warm task-heap add/pop allocates nothing" `Quick
      test_pqueue_round_alloc_free;
    Alcotest.test_case "Graph.vertex allocates nothing" `Quick test_graph_vertex_alloc_free;
    Alcotest.test_case "a failing shard raises from step, never hangs" `Quick
      test_shard_failure_surfaces;
    Alcotest.test_case "stuck set: first reason, barrier merge, recycling" `Quick
      test_stuck_first_report_and_recycling;
  ]
