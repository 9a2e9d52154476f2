(* Running jobs and timing them from outside the simulator: every
   [Engine.step] is bracketed by clock reads, set-up is split into its
   public calls, and allocation is read from [Gc.quick_stat] after
   [Engine.dispose] has joined the worker domains (their minor words only
   reach the process-wide counters once they have ended).

   Times are read on the calling thread's CPU clock ([cpu_ns]). At 1
   domain the engine runs all its work on that thread, so its CPU time is
   the program's cost; the monotonic clock would also count the time the
   thread waits for the vCPU, which on a shared virtual machine swings
   with the neighbours' load. The monotonic clock ([now_ns]) times the
   run's length and the 2-domain twin round, whose work runs on two
   threads. *)

open Dgr_sim
module W = Workloads
module Vec = Dgr_util.Vec

let now_ns () = Int64.to_int (Monotonic_clock.now ())

external cpu_ns : unit -> int = "perfbench_thread_cpu_ns" [@@noalloc]

(* Linear interpolation between closest ranks, on a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i + 1 >= n then sorted.(n - 1)
    else
      let f = r -. float_of_int i in
      (sorted.(i) *. (1.0 -. f)) +. (sorted.(i + 1) *. f)

let quantile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile a p

let median = quantile 50.0

(* The mean of the fastest nine tenths. *)
let trimmed_mean xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Int.max 1 (Array.length a * 9 / 10) in
  Array.fold_left ( +. ) 0.0 (Array.sub a 0 (Int.min n (Array.length a))) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Host speed.                                                         *)
(* ------------------------------------------------------------------ *)

(* A shared virtual machine's speed drifts with its neighbours' load, by
   up to 1.5x over minutes, even on the CPU clock: far more than the
   changes this benchmark must resolve. So a fixed piece of plain OCaml
   of the same kind as the simulator's inner loops (a small hash table,
   short-lived tuples and list cells) is timed between steps all through
   the timed rounds, and the mean of its fastest nine tenths measures the
   host's speed during the run. It calls nothing in the dgr libraries. *)
module Probe = struct
  let work () =
    let h = Hashtbl.create 64 in
    let cells = ref [] in
    for i = 0 to 1999 do
      Hashtbl.replace h (i * 31 land 1023) i;
      cells := (i, i + 1) :: !cells
    done;
    let acc = ref 0 in
    List.iter
      (fun (k, _) ->
        match Hashtbl.find_opt h (k land 1023) with Some v -> acc := !acc + v | None -> ())
      !cells;
    ignore (Sys.opaque_identity !acc : int)

  (* Once to bring its data into the caches, then once timed. *)
  let time_ns () =
    work ();
    let t = cpu_ns () in
    work ();
    cpu_ns () - t

  type t = { every_ns : int; mutable next_ns : int; samples : int Vec.t }

  let make ~every_ns = { every_ns; next_ns = 0; samples = Vec.create () }

  (* Times the probe once [every_ns] of CPU time have passed since the
     last time; [now] is the CPU clock. *)
  let tick p now =
    if now >= p.next_ns then begin
      Vec.push p.samples (time_ns ());
      p.next_ns <- cpu_ns () + p.every_ns
    end

  let samples p = List.map float_of_int (Array.to_list (Vec.to_array p.samples))
end

(* ------------------------------------------------------------------ *)
(* Benchmark-side spans, recorded only in the traced pass.             *)
(* ------------------------------------------------------------------ *)

module Spans = struct
  let names =
    [|
      "pass"; "round"; "job"; "setup.build"; "setup.create"; "setup.prime";
      "setup.first_step"; "step"; "dispose"; "check";
    |]

  let id_of name =
    let rec go i = if names.(i) = name then i else go (i + 1) in
    go 0

  let pass = id_of "pass"
  let round = id_of "round"
  let job = id_of "job"
  let build = id_of "setup.build"
  let create = id_of "setup.create"
  let prime = id_of "setup.prime"
  let first_step = id_of "setup.first_step"
  let step = id_of "step"
  let dispose = id_of "dispose"
  let check = id_of "check"

  (* Span [i] is the [i]-th entry of every column; [stop] is [-1] while
     the span is open. Spans of one job share its [job] number. *)
  type t = {
    parent : int Vec.t;
    job_no : int Vec.t;
    name : int Vec.t;
    start : int Vec.t;
    stop : int Vec.t;
  }

  let make () =
    {
      parent = Vec.create ();
      job_no = Vec.create ();
      name = Vec.create ();
      start = Vec.create ();
      stop = Vec.create ();
    }

  let add t ~parent ~job name start stop =
    let id = Vec.length t.name in
    Vec.push t.parent parent;
    Vec.push t.job_no job;
    Vec.push t.name name;
    Vec.push t.start start;
    Vec.push t.stop stop;
    id

  let open_ t ~parent ~job name = add t ~parent ~job name (cpu_ns ()) (-1)
  let close t id = Vec.set t.stop id (cpu_ns ())
  let length t = Vec.length t.name

  (* Per span name: count, total time and self time (total minus the
     time covered by direct children, which never overlap here). *)
  let self_times t =
    let n = length t and k = Array.length names in
    let count = Array.make k 0
    and total = Array.make k 0
    and covered = Array.make n 0 in
    for i = 0 to n - 1 do
      let d = Vec.get t.stop i - Vec.get t.start i in
      let p = Vec.get t.parent i in
      if p >= 0 then covered.(p) <- covered.(p) + d
    done;
    let self = Array.make k 0 in
    for i = 0 to n - 1 do
      let nm = Vec.get t.name i in
      let d = Vec.get t.stop i - Vec.get t.start i in
      count.(nm) <- count.(nm) + 1;
      total.(nm) <- total.(nm) + d;
      self.(nm) <- self.(nm) + d - covered.(i)
    done;
    Array.to_list (Array.mapi (fun i nm -> (nm, count.(i), total.(i), self.(i))) names)

  let to_json t ~header =
    let b = Buffer.create (64 * (length t + 16)) in
    Printf.bprintf b "{%s,\"names\":[%s],\n\"self\":[" header
      (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%S") names)));
    List.iteri
      (fun i (nm, c, tot, self) ->
        Printf.bprintf b "%s{\"name\":%S,\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}"
          (if i = 0 then "" else ",")
          nm c tot self)
      (self_times t);
    Buffer.add_string b
      "],\n\"columns\":[\"id\",\"parent\",\"job\",\"name\",\"start_ns\",\"end_ns\"],\n\"spans\":[";
    let t0 = if length t = 0 then 0 else Vec.get t.start 0 in
    for i = 0 to length t - 1 do
      Printf.bprintf b "%s[%d,%d,%d,%d,%d,%d]"
        (if i = 0 then "" else ",\n")
        i (Vec.get t.parent i) (Vec.get t.job_no i) (Vec.get t.name i)
        (Vec.get t.start i - t0)
        (Vec.get t.stop i - t0)
    done;
    Buffer.add_string b "]}\n";
    Buffer.contents b
end

(* A traced pass: an event recorder attached to every engine, plus spans. *)
type tracer = { spans : Spans.t; mutable next_job : int }

(* ------------------------------------------------------------------ *)
(* One job.                                                            *)
(* ------------------------------------------------------------------ *)

(* A job's set-up time, split into its public calls, in ns. *)
type setup = { build_ns : int; create_ns : int; prime_ns : int; first_step_ns : int }

let setup_total s = s.build_ns + s.create_ns + s.prime_ns + s.first_step_ns

type outcome = {
  job : W.job;
  verdict : (unit, string) result;
  sim_steps : int;  (** steps to the job's result, or its cap without one *)
  setup : setup;
  timed_steps : int;  (** steps after the first *)
  timed_ns : int;  (** CPU time of the timed steps, on the calling thread *)
  wall_ns : int;  (** their monotonic-clock time *)
  timed_tasks : int;  (** simulated tasks executed in the timed steps *)
  words : float;  (** minor words over the timed steps, every domain *)
  signature : string;  (** the simulated outcome, for replay checks *)
  metrics : Metrics.t;
  profile : Profile.t;
  garbage : int;
  stale_dropped : int;  (** reduction tasks the reducer dropped as stale *)
  rc_messages : int;
  rc_reclaimed : int;
  events : int;  (** recorder events emitted (traced pass) *)
  events_dropped : int;
}

let tasks m = m.Metrics.reduction_executed + m.Metrics.marking_executed

(* Everything the simulated machine did, in one string: equal strings
   mean the same simulated run, whatever the host or domain count. *)
let signature e ~steps =
  let m = Engine.metrics e in
  let h = m.Metrics.lat_e2e in
  Printf.sprintf "%d|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d" steps
    (W.show_result (Engine.result e))
    (Dgr_graph.Graph.live_count (Engine.graph e))
    m.Metrics.reduction_executed m.Metrics.marking_executed m.Metrics.remote_messages
    m.Metrics.local_messages m.Metrics.tasks_purged m.Metrics.cycles_completed
    m.Metrics.total_pause_steps m.Metrics.frames_sent m.Metrics.tasks_sent
    m.Metrics.retransmits m.Metrics.crashes (W.garbage_collected e)
    (Dgr_obs.Hist.count h)
    (Dgr_obs.Hist.percentile h 50.0)
    (Dgr_obs.Hist.percentile h 99.0)

(* Set-up, split into its public calls: input generation, engine
   creation, priming, and the first step (which spawns the worker
   domains). Returns the engine, the start time and the four durations
   in ns. Every job starts from a fully collected heap, so that neither
   its set-up nor its steps pay the major collector's work on earlier
   jobs' garbage. *)
let start ?recorder ~domains (job : W.job) =
  Gc.full_major ();
  let t0 = cpu_ns () in
  let g, templates = W.build job in
  let t1 = cpu_ns () in
  let e = Engine.create ?recorder ~config:(job.config ~domains) g templates in
  let t2 = cpu_ns () in
  W.prime e job;
  let t3 = cpu_ns () in
  Engine.step e;
  let t4 = cpu_ns () in
  (e, t0, { build_ns = t1 - t0; create_ns = t2 - t1; prime_ns = t3 - t2; first_step_ns = t4 - t3 })

(* One set-up sample: the set-up time of each job of a round, in ns. *)
let setup_sample ~domains jobs =
  List.map
    (fun job ->
      let e, _, s = start ~domains job in
      Engine.dispose e;
      setup_total s)
    jobs

let run_job ?tracer ?probe ?(round_span = -1) ~domains ~step_ns (job : W.job) =
  let sp, job_no, job_span =
    match tracer with
    | None -> (None, -1, -1)
    | Some tr ->
      let no = tr.next_job in
      tr.next_job <- no + 1;
      (Some tr.spans, no, Spans.open_ tr.spans ~parent:round_span ~job:no Spans.job)
  in
  let span name t0 t1 =
    match sp with
    | None -> ()
    | Some s -> ignore (Spans.add s ~parent:job_span ~job:job_no name t0 t1 : int)
  in
  let recorder =
    match tracer with
    | None -> None
    | Some _ -> Some (Dgr_obs.Recorder.create ~sample_every:100 ~num_pes:8 ())
  in
  let e, t0, setup = start ?recorder ~domains job in
  let t1 = t0 + setup.build_ns in
  let t2 = t1 + setup.create_ns in
  let t3 = t2 + setup.prime_ns in
  let t4 = t3 + setup.first_step_ns in
  span Spans.build t0 t1;
  span Spans.create t1 t2;
  span Spans.prime t2 t3;
  span Spans.first_step t3 t4;
  let tasks0 = tasks (Engine.metrics e) in
  let words0 = (Gc.quick_stat ()).Gc.minor_words in
  let steps = ref 1 and timed_ns = ref 0 and wall_ns = ref 0 in
  while !steps < job.cap && not (W.reached e job) do
    let w = now_ns () in
    let a = cpu_ns () in
    Engine.step e;
    let b = cpu_ns () in
    wall_ns := !wall_ns + (now_ns () - w);
    Vec.push step_ns (b - a);
    span Spans.step a b;
    timed_ns := !timed_ns + (b - a);
    Option.iter (fun p -> Probe.tick p b) probe;
    incr steps
  done;
  let t5 = cpu_ns () in
  Engine.dispose e;
  let words = (Gc.quick_stat ()).Gc.minor_words -. words0 in
  let t6 = cpu_ns () in
  span Spans.dispose t5 t6;
  let verdict = W.judge e job in
  let reached = W.reached e job in
  let signature = signature e ~steps:!steps in
  span Spans.check t6 (cpu_ns ());
  (match sp with None -> () | Some s -> Spans.close s job_span);
  let m = Engine.metrics e in
  {
    job;
    verdict;
    sim_steps = (if reached then !steps else job.cap);
    setup;
    timed_steps = !steps - 1;
    timed_ns = !timed_ns;
    wall_ns = !wall_ns;
    timed_tasks = tasks m - tasks0;
    words;
    signature;
    metrics = m;
    profile = Engine.profile e;
    garbage = W.garbage_collected e;
    stale_dropped = (Engine.reducer e).Dgr_reduction.Reducer.stale_dropped;
    rc_messages =
      (match Engine.refcount e with Some rc -> Dgr_baseline.Refcount.messages rc | None -> 0);
    rc_reclaimed =
      (match Engine.refcount e with Some rc -> Dgr_baseline.Refcount.reclaimed rc | None -> 0);
    events = (match recorder with Some r -> Dgr_obs.Recorder.emitted r | None -> 0);
    events_dropped = (match recorder with Some r -> Dgr_obs.Recorder.dropped r | None -> 0);
  }

(* ------------------------------------------------------------------ *)
(* One round: the workload's job list, closed loop (each job starts     *)
(* when the previous one has ended).                                   *)
(* ------------------------------------------------------------------ *)

type round = {
  outcomes : outcome list;
  step_ns : float array;  (** the CPU time of every timed step of the round *)
}

let run_round ?tracer ?probe ?(pass_span = -1) ~domains (w : W.t) =
  let step_ns = Vec.create () in
  let round_span =
    match tracer with
    | None -> -1
    | Some tr -> Spans.open_ tr.spans ~parent:pass_span ~job:(-1) Spans.round
  in
  let outcomes = List.map (run_job ?tracer ?probe ~round_span ~domains ~step_ns) w.jobs in
  (match tracer with None -> () | Some tr -> Spans.close tr.spans round_span);
  { outcomes; step_ns = Array.map float_of_int (Vec.to_array step_ns) }

let sum f r = List.fold_left (fun acc o -> acc + f o) 0 r.outcomes
let sumf f r = List.fold_left (fun acc o -> acc +. f o) 0.0 r.outcomes

let rate_over ns r =
  float_of_int (sum (fun o -> o.timed_tasks) r)
  /. (float_of_int (Int.max 1 (sum ns r)) /. 1e9)

(* Simulated tasks per CPU second of the calling thread. *)
let tasks_per_s = rate_over (fun o -> o.timed_ns)

(* Simulated tasks per monotonic-clock second: the rate to compare across
   domain counts, since at 2 domains the work runs on two threads. *)
let wall_tasks_per_s = rate_over (fun o -> o.wall_ns)

let per_step_words r =
  sumf (fun o -> o.words) r /. float_of_int (Int.max 1 (sum (fun o -> o.timed_steps) r))

(* What a round leaves behind once its engines' records are dropped:
   keeping every round's records would grow the process's resident set
   with the number of rounds, and so with the host's speed. *)
type summary = {
  checks : (string * (unit, string) result * string) list;
      (** label, verdict and signature of each job *)
  tasks : int;  (** simulated tasks executed in the timed steps *)
  cpu_ns : int;  (** their CPU time *)
  words : float;  (** their minor words, every domain *)
  steps : int;  (** timed steps *)
  step_ns : float array;  (** the CPU time of every timed step *)
}

let summarise r =
  {
    checks = List.map (fun o -> (o.job.W.label, o.verdict, o.signature)) r.outcomes;
    tasks = sum (fun o -> o.timed_tasks) r;
    cpu_ns = sum (fun o -> o.timed_ns) r;
    words = sumf (fun o -> o.words) r;
    steps = sum (fun o -> o.timed_steps) r;
    step_ns = r.step_ns;
  }

(* The timing figures of rounds pooled: every timed step of every round
   counts once. *)
type timing = {
  rate : float;  (** simulated tasks per CPU second *)
  p50_us : float;  (** step-time percentiles, in CPU microseconds *)
  p99_us : float;
  words_per_step : float;
}

let timing ss =
  let total f = List.fold_left (fun acc s -> acc + f s) 0 ss in
  let all = Array.concat (List.map (fun s -> s.step_ns) ss) in
  Array.sort Float.compare all;
  let us p = percentile all p /. 1e3 in
  {
    rate =
      float_of_int (total (fun s -> s.tasks))
      /. (float_of_int (Int.max 1 (total (fun s -> s.cpu_ns))) /. 1e9);
    p50_us = us 50.0;
    p99_us = us 99.0;
    words_per_step =
      List.fold_left (fun acc s -> acc +. s.words) 0.0 ss
      /. float_of_int (Int.max 1 (total (fun s -> s.steps)));
  }

(* A one-job round, for reporting a job on its own. *)
let of_outcome o = { outcomes = [ o ]; step_ns = [||] }
