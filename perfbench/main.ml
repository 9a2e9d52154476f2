(* perfbench: the repository benchmark for the dgr simulator.

     main.exe --workload storm|programs|faults-rc --seed N --seconds S
              --trace 0|1 [--nproc N] [--out DIR]

   --trace 0 runs closed-loop rounds of the workload's job list on 1 domain
   for about S seconds, timing every Engine.step from outside on the CPU
   clock and scaling the times by a host probe (README.md, "Host speed"),
   checks every job's output, and prints the end-to-end metrics. --trace 1 runs one
   untraced round, one traced round (an event recorder on every engine plus
   benchmark-side spans around every public call, written to DIR) and one
   round at 2 domains, and prints the per-layer metrics. Timed rounds use
   1 domain because on a small virtual machine a 2-domain engine times the
   hypervisor more than the program (README.md, "Domains").
   The last line of standard output is one JSON object with the keys
   "correct", "attempted", "failed" and "metrics". README.md explains the
   workloads and what each metric should predict. *)

open Dgr_sim
module W = Workloads
module M = Measure

let usage () =
  prerr_endline
    "usage: main.exe --workload storm|programs|faults-rc --seed N --seconds S \
     --trace 0|1 [--nproc N] [--out DIR]";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 1) fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  nproc : int;
  out : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) and out = ref ".bench_out" in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | "--nproc" :: v :: rest -> nproc := int_of_string v; go rest
    | "--out" :: v :: rest -> out := v; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload W.names)) || (!trace <> 0 && !trace <> 1) then usage ();
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    nproc = !nproc;
    out = !out;
  }

(* ------------------------------------------------------------------ *)
(* Host and output.                                                    *)
(* ------------------------------------------------------------------ *)

let host_json a =
  Printf.sprintf
    "{\"nproc\":%d,\"recommended_domain_count\":%d,\"ocaml\":%S,\"os\":%S,\"word_size\":%d}"
    a.nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.os_type Sys.word_size

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let report ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %16.6f %s\n" n v u) metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (failed = 0) attempted failed
    (String.concat ","
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (num v) u)
          metrics))

(* The problems of every job run, in order; [] for a job that passed.
   Every job must produce the right output, and every replay of a job —
   a later round, the traced round, the 2-domain twin — must
   reproduce the first run's simulated outcome exactly. *)
let job_problems (summaries : M.summary list) =
  match summaries with
  | [] -> []
  | first :: _ ->
    let reference = Array.of_list first.checks in
    List.concat_map
      (fun (s : M.summary) ->
        List.mapi
          (fun i (label, verdict, signature) ->
            let _, _, expected = reference.(i) in
            (match verdict with
             | Ok () -> []
             | Error msg -> [ Printf.sprintf "%s: %s" label msg ])
            @
            if signature = expected then []
            else
              [
                Printf.sprintf "%s: replay diverged (%s vs %s)" label signature expected;
              ])
          s.checks)
      summaries

(* [(attempted, failed)] jobs, reporting each failure on stderr. *)
let tally rounds =
  let problems = job_problems rounds in
  List.iter (List.iter (fun p -> prerr_endline ("perfbench: FAILED " ^ p))) problems;
  (List.length problems, List.length (List.filter (( <> ) []) problems))

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (--trace 0).                                     *)
(* ------------------------------------------------------------------ *)

(* Task latency is summarised by the mean of the merged histograms and by
   the worst job's p99: on these mixes a merged percentile can fall
   between two jobs' modes and then swings with the seed. *)
let sim_metrics (r : M.round) =
  let lat = Dgr_obs.Hist.create () in
  let p99 =
    List.fold_left
      (fun acc o ->
        let h = o.M.metrics.Metrics.lat_e2e in
        let p = Dgr_obs.Hist.percentile h 99.0 in
        Dgr_obs.Hist.absorb ~into:lat h;
        Int.max acc p)
      0 r.outcomes
  in
  [
    ("sim_steps_to_result", float_of_int (M.sum (fun o -> o.M.sim_steps) r), "steps");
    ("sim_task_lat_mean_steps", Dgr_obs.Hist.mean lat, "steps");
    ("sim_task_lat_p99_steps", float_of_int p99, "steps");
    ( "sim_pause_steps",
      float_of_int (M.sum (fun o -> o.M.metrics.Metrics.total_pause_steps) r),
      "steps" );
  ]

(* Set-up samples are spread through the run: after every round, as many
   as keep their wall time at [setup_share] of the run so far; at least
   [min_setups] in all. [setup_s] sums, over the round's jobs, each job's
   fastest sample. Set-up takes under a millisecond on two of the
   workloads, and there the minimum of hundreds of samples moves far less
   with the host's load than any quantile does; taking it per job lets
   each job's fastest sample come from a different moment of the run. *)
let setup_share = 0.15
let min_setups = 5

(* The host probe (Measure.Probe) is timed after every [probe_every_ns]
   of timed CPU time. [probe_ref_ns] is its trimmed mean time on the
   reference host (README.md, "Host speed"). The timing metrics are
   scaled by the run's trimmed mean over it, so that they read as on that
   host at its usual speed. *)
let probe_every_ns = 25_000_000
let probe_ref_ns = 330_000.0

let end_to_end a (w : W.t) =
  let start = M.now_ns () in
  let elapsed () = float_of_int (M.now_ns () - start) /. 1e9 in
  let setups = ref [] and sampling = ref 0.0 in
  let sample () =
    let t = elapsed () in
    let s = M.setup_sample ~domains:1 w.jobs in
    setups := List.map (fun ns -> float_of_int ns /. 1e9) s :: !setups;
    sampling := !sampling +. (elapsed () -. t)
  in
  let top_up () =
    sample ();
    while !sampling < setup_share *. elapsed () do
      sample ()
    done
  in
  let warm_probe = M.Probe.make ~every_ns:probe_every_ns
  and probe = M.Probe.make ~every_ns:probe_every_ns in
  let first = M.run_round ~probe:warm_probe ~domains:1 w in
  (* Read before any other round: the resident set keeps growing with the
     number of rounds, which depends on the host's speed. *)
  let rss = peak_rss_mb () in
  top_up ();
  let rec rounds acc last =
    if elapsed () +. last > a.seconds then List.rev acc
    else
      let t = elapsed () in
      let s = M.summarise (M.run_round ~probe ~domains:1 w) in
      top_up ();
      rounds (s :: acc) (elapsed () -. t)
  in
  let rs = rounds [ M.summarise first ] (elapsed ()) in
  while List.length !setups < min_setups do
    sample ()
  done;
  let per_job = List.mapi (fun j _ -> List.map (fun l -> List.nth l j) !setups) w.jobs in
  let summed f = List.fold_left (fun acc xs -> acc +. f xs) 0.0 per_job in
  let fastest = List.fold_left Float.min infinity in
  (* The first round warms the caches and the code; the others are timed,
     unless there are none. *)
  let timed_rounds, probe =
    match rs with _ :: (_ :: _ as later) -> (later, probe) | _ -> (rs, warm_probe)
  in
  let timed = M.timing timed_rounds in
  (* How much slower than the reference host this run's host was. *)
  let probes = M.Probe.samples probe in
  let slowdown = M.trimmed_mean probes /. probe_ref_ns in
  let attempted, failed = tally rs in
  let metrics =
    [
      ("tasks_per_s", timed.rate *. slowdown, "1/s");
      ("step_us_p50", timed.p50_us /. slowdown, "us");
      ("step_us_p99", timed.p99_us /. slowdown, "us");
      ("setup_s", summed fastest, "s");
      ("peak_rss_mb", rss, "MB");
      ("minor_words_per_step", timed.words_per_step, "words");
    ]
    @ sim_metrics first
    @ [
        ( "job_success_rate",
          float_of_int (attempted - failed) /. float_of_int (Int.max 1 attempted),
          "share" );
      ]
  in
  List.iter
    (fun o ->
      Printf.printf "  job %-26s steps %7d  tasks/s %9.0f  words/step %8.1f  setup %.4f s\n"
        o.M.job.W.label o.M.sim_steps
        (M.tasks_per_s (M.of_outcome o))
        (M.per_step_words (M.of_outcome o))
        (float_of_int (M.setup_total o.M.setup) /. 1e9))
    first.M.outcomes;
  Printf.printf "setup samples %d, summed over jobs: fastest %.6f s, median %.6f s\n"
    (List.length !setups) (summed fastest) (summed M.median);
  Printf.printf
    "host probe %d: trimmed mean %.1f us, median %.1f us, reference %.1f us: slowdown %.4f\n"
    (List.length probes) (M.trimmed_mean probes /. 1e3) (M.median probes /. 1e3)
    (probe_ref_ns /. 1e3) slowdown;
  Printf.printf "timed rounds as measured: tasks/s %.0f, step us p50 %.2f p99 %.2f\n" timed.rate
    timed.p50_us timed.p99_us;
  Printf.printf "rounds %d, jobs %d, failed %d, error_rate %g\n" (List.length rs) attempted
    failed
    (float_of_int failed /. float_of_int (Int.max 1 attempted));
  List.iteri
    (fun i s ->
      let t = M.timing [ s ] in
      Printf.printf "  round %d: tasks/s %.0f, step us p50 %.1f p99 %.1f\n" i t.M.rate
        t.M.p50_us t.M.p99_us)
    rs;
  report ~attempted ~failed metrics

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (--trace 1).                                      *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* A profile figure summed over a round's jobs. *)
let prof (r : M.round) f = M.sumf (fun o -> f o.M.profile) r

(* Whole-round serial fraction and Amdahl ceiling from the jobs' own:
   both are linear in each job's total step time, so weighting by it
   gives exactly the figures of the summed profile. *)
let serial_fraction r =
  ratio (prof r (fun p -> Profile.serial_fraction p *. p.Profile.total_ns))
    (prof r (fun p -> p.Profile.total_ns))

let amdahl_ceiling r ~domains =
  ratio
    (prof r (fun p -> p.Profile.total_ns))
    (prof r (fun p -> p.Profile.total_ns /. Profile.amdahl_speedup p ~domains))

(* Absorbing empties the jobs' histograms: call once per histogram. *)
let merged_p99 (r : M.round) hist =
  let h = Dgr_obs.Hist.create () in
  List.iter (fun o -> Dgr_obs.Hist.absorb ~into:h (hist o.M.metrics)) r.outcomes;
  float_of_int (Dgr_obs.Hist.percentile h 99.0)

let per_layer ~(run : M.round) ~(traced : M.round) ~(d2 : M.round) =
  let m f = M.sum (fun o -> f o.M.metrics) run in
  let steps = m (fun m -> m.Metrics.steps) in
  let total_ns = prof run (fun p -> p.Profile.total_ns) in
  let profiled_steps = M.sum (fun o -> o.M.profile.Profile.steps) run in
  let share f = ratio (prof run f) total_ns in
  let us_per_step f = ratio (prof run f) (float_of_int steps) /. 1e3 in
  let mw_per_step f = ratio (prof run f) (float_of_int profiled_steps) in
  let frames = m (fun m -> m.Metrics.frames_sent) in
  let red = m (fun m -> m.Metrics.reduction_executed)
  and mark = m (fun m -> m.Metrics.marking_executed) in
  let cycles = m (fun m -> m.Metrics.cycles_completed) in
  let crashes = m (fun m -> m.Metrics.crashes) in
  let depth_total = M.sumf (fun o -> Dgr_util.Stats.total o.M.metrics.Metrics.pool_depth) run
  and depth_count = M.sum (fun o -> Dgr_util.Stats.count o.M.metrics.Metrics.pool_depth) run in
  let secs f r = float_of_int (M.sum f r) /. 1e9 in
  [
    ("engine.speedup_d2", ratio (M.wall_tasks_per_s d2) (M.wall_tasks_per_s run), "x");
    ("engine.amdahl_ceiling_d2", amdahl_ceiling run ~domains:2, "x");
    ("engine.serial_fraction", serial_fraction run, "share");
    ("engine.tasks_per_step", iratio (red + mark) steps, "tasks");
    ("engine.transport_share", share (fun p -> p.Profile.transport_ns), "share");
    ("engine.execute_share", share (fun p -> p.Profile.execute_ns), "share");
    ("engine.sexec_share", share (fun p -> p.Profile.sexec_ns), "share");
    ("engine.merge_share", share (fun p -> p.Profile.merge_ns), "share");
    ("engine.gc_share", share (fun p -> p.Profile.gc_ns), "share");
    ("engine.book_share", share (fun p -> p.Profile.book_ns), "share");
    ("engine.merge_us_per_step", us_per_step (fun p -> p.Profile.merge_ns), "us");
    ("engine.merge.drain_us_per_step", us_per_step (fun p -> p.Profile.drain_ns), "us");
    ("engine.merge.absorb_us_per_step", us_per_step (fun p -> p.Profile.absorb_ns), "us");
    ("engine.merge.close_us_per_step", us_per_step (fun p -> p.Profile.close_ns), "us");
    ("engine.merge.pflush_us_per_step", us_per_step (fun p -> p.Profile.pflush_ns), "us");
    ("engine.merge.flush_us_per_step", us_per_step (fun p -> p.Profile.flush_ns), "us");
    ("engine.merge.replay_us_per_step", us_per_step (fun p -> p.Profile.replay_ns), "us");
    ("engine.transport_mw_per_step", mw_per_step (fun p -> p.Profile.transport_mw), "words");
    ("engine.execute_mw_per_step", mw_per_step (fun p -> p.Profile.execute_mw), "words");
    ("engine.sexec_mw_per_step", mw_per_step (fun p -> p.Profile.sexec_mw), "words");
    ("engine.merge_mw_per_step", mw_per_step (fun p -> p.Profile.merge_mw), "words");
    ("engine.gc_mw_per_step", mw_per_step (fun p -> p.Profile.gc_mw), "words");
    ("engine.book_mw_per_step", mw_per_step (fun p -> p.Profile.book_mw), "words");
    ("network.frames_per_step", iratio frames steps, "count");
    ("network.tasks_per_frame", iratio (m (fun m -> m.Metrics.tasks_sent)) frames, "ratio");
    ( "network.coalesce_ratio",
      iratio (m (fun m -> m.Metrics.marks_coalesced)) (m (fun m -> m.Metrics.tasks_sent)),
      "share" );
    ("network.lat_net_p99_steps", merged_p99 run (fun m -> m.Metrics.lat_net), "steps");
    ("network.retransmit_ratio", iratio (m (fun m -> m.Metrics.retransmits)) frames, "share");
    ("network.acks_per_frame", iratio (m (fun m -> m.Metrics.acks_sent)) frames, "ratio");
    ("network.dup_suppressed", float_of_int (m (fun m -> m.Metrics.dup_suppressed)), "count");
    ("network.lat_retx_p99_steps", merged_p99 run (fun m -> m.Metrics.lat_retx), "steps");
    ("faults.rehomed_per_crash", iratio (m (fun m -> m.Metrics.crash_rehomed)) crashes, "ratio");
    ("faults.lost_tasks", float_of_int (m (fun m -> m.Metrics.crash_lost_tasks)), "count");
    ("faults.recovery_p99_steps", merged_p99 run (fun m -> m.Metrics.lat_recovery), "steps");
    ("pool.depth_mean", ratio depth_total (float_of_int depth_count), "tasks");
    ("pool.lat_queue_p99_steps", merged_p99 run (fun m -> m.Metrics.lat_queue), "steps");
    ("reducer.ns_per_task", ratio (prof run (fun p -> p.Profile.red_ns)) (float_of_int red), "ns");
    ("reducer.useful_share", iratio (red - M.sum (fun o -> o.M.stale_dropped) run) red, "share");
    ("marker.ns_per_task", ratio (prof run (fun p -> p.Profile.mark_ns)) (float_of_int mark), "ns");
    ("marker.stale_ratio", iratio (m (fun m -> m.Metrics.stale_marks_dropped)) mark, "share");
    ("cycle.completed", float_of_int cycles, "count");
    ("cycle.steps_per_cycle", iratio steps cycles, "steps");
    ("cycle.garbage_collected", float_of_int (M.sum (fun o -> o.M.garbage) run), "count");
    ("cycle.tasks_purged", float_of_int (m (fun m -> m.Metrics.tasks_purged)), "count");
    ("cycle.restructure_us_per_step", us_per_step (fun p -> p.Profile.restr_ns), "us");
    ( "cycle.pause_steps_per_cycle",
      iratio (m (fun m -> m.Metrics.total_pause_steps)) cycles,
      "steps" );
    ("refcount.messages", float_of_int (M.sum (fun o -> o.M.rc_messages) run), "count");
    ("refcount.reclaimed", float_of_int (M.sum (fun o -> o.M.rc_reclaimed) run), "count");
    ("setup.build_s", secs (fun o -> o.M.setup.M.build_ns) run, "s");
    ("setup.create_s", secs (fun o -> o.M.setup.M.create_ns) run, "s");
    ("setup.prime_s", secs (fun o -> o.M.setup.M.prime_ns) run, "s");
    ("setup.first_step_s", secs (fun o -> o.M.setup.M.first_step_ns) run, "s");
    ( "obs.trace_overhead",
      ratio
        (float_of_int (M.sum (fun o -> o.M.timed_ns) traced))
        (float_of_int (M.sum (fun o -> o.M.timed_ns) run))
      -. 1.0,
      "share" );
    ( "obs.events_per_step",
      iratio (M.sum (fun o -> o.M.events) traced) (M.sum (fun o -> o.M.timed_steps) traced),
      "count" );
    ("obs.recorder_dropped", float_of_int (M.sum (fun o -> o.M.events_dropped) traced), "count");
  ]

let traced a (w : W.t) =
  let run = M.run_round ~domains:1 w in
  let tracer = { M.spans = M.Spans.make (); next_job = 0 } in
  let pass_span = M.Spans.open_ tracer.spans ~parent:(-1) ~job:(-1) M.Spans.pass in
  let traced_round = M.run_round ~tracer ~pass_span ~domains:1 w in
  M.Spans.close tracer.spans pass_span;
  let twin = M.run_round ~domains:2 w in
  let attempted, failed = tally (List.map M.summarise [ run; traced_round; twin ]) in
  (try Sys.mkdir a.out 0o755 with Sys_error _ -> ());
  let path = Filename.concat a.out (Printf.sprintf "spans-%s.json" w.name) in
  let header =
    Printf.sprintf "\"workload\":%S,\"seed\":%d,\"domains\":1,\"host\":%s" w.name a.seed
      (host_json a)
  in
  let oc = open_out path in
  output_string oc (M.Spans.to_json tracer.spans ~header);
  close_out oc;
  Printf.printf "spans: %s (%d spans); self time by span:\n" path
    (M.Spans.length tracer.spans);
  List.iter
    (fun (name, count, total, self) ->
      Printf.printf "  %-18s n=%-7d total %10.3f ms  self %10.3f ms\n" name count
        (float_of_int total /. 1e6) (float_of_int self /. 1e6))
    (M.Spans.self_times tracer.spans);
  report ~attempted ~failed (per_layer ~run ~traced:traced_round ~d2:twin)

let () =
  let a = parse_args () in
  let w = match W.find a.workload a.seed with Some w -> w | None -> usage () in
  Printf.printf "host %s\n" (host_json a);
  if a.trace && (a.nproc < 2 || Domain.recommended_domain_count () < 2) then
    fail "refusing to report %s at 2 domains on a host with %d cores" w.name a.nproc;
  Printf.printf "workload %s, seed %d, trace %b\n%!" w.name a.seed a.trace;
  if a.trace then traced a w else end_to_end a w
