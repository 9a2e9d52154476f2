(* The benchmark's workloads: fixed job lists whose seeds derive from the
   workload seed. Every job is built through the simulator's public APIs
   only ([Engine.Config.make], [Builder.random], [Compile.load_string],
   [Prelude]). See README.md for why each workload was chosen. *)

open Dgr_graph
open Dgr_sim
open Dgr_lang

type input =
  | Program of string  (** surface-language source; its root is demanded *)
  | Storm of Builder.random_spec * int
      (** a rooted random operator graph and the seed that generates it *)

type goal =
  | Value of int  (** the root's value must equal this *)
  | Survive of int
      (** run to the step cap or the result; judged by [Validate.check]
          alone, except that a result which does arrive must equal this *)
  | Collect of { live : int; garbage : int }
      (** the first collection cycle must complete, reclaim exactly
          [garbage] vertices and leave exactly [live] *)

type job = {
  label : string;
  input : input;
  config : domains:int -> Engine.config;
  cap : int;  (** step budget; a job without a result counts this many steps *)
  goal : goal;
}

type t = { name : string; jobs : job list }

let names = [ "storm"; "programs"; "faults-rc" ]

let concurrent idle_gap = Engine.Concurrent { deadlock_every = 1; idle_gap }

(* The storm-tree-50k graph of [dgr bench]: 50k live and 12.5k garbage
   vertices over 8 PEs. *)
let storm_spec =
  {
    Builder.live = 50_000;
    garbage = 12_500;
    free_pool = 64;
    avg_degree = 2.5;
    cycle_bias = 0.15;
  }

(* Expected value of [Prelude.speculative_deep n m]: the vital branch
   always wins with 42. *)
let speculative_deep_value = 42

let fib_program n = (Program (Prelude.fib n), Value (Prelude.fib_expected n))

(* [derive seed k] is the [k]-th sub-seed of the workload seed: a pure
   function of both, so every job's machine and fault seeds are fixed by
   the workload seed alone. *)
let derive seed k = Dgr_util.Rng.int (Dgr_util.Rng.stream ~seed k) 0x3FFF_FFFF


let storm_job seed =
  {
    label = "storm-tree-50k";
    input = Storm (storm_spec, derive seed 1);
    config =
      (fun ~domains ->
        Engine.Config.make ~num_pes:8 ~gc:(concurrent 30) ~heap_size:None
          ~marking:Dgr_core.Cycle.Tree ~seed:(derive seed 0) ~domains ());
    cap = 30_000;
    goal = Collect { live = storm_spec.live; garbage = storm_spec.garbage };
  }

let fib16_job seed =
  let input, goal = fib_program 16 in
  {
    label = "fib-16";
    input;
    config =
      (fun ~domains ->
        Engine.Config.make ~num_pes:8 ~gc:(concurrent 50) ~marking:Dgr_core.Cycle.Tree
          ~jitter:0.01 ~seed ~domains ());
    cap = 200_000;
    goal;
  }

let speculative_job seed =
  {
    label = "speculative-deep-2000-10";
    input = Program (Prelude.speculative_deep 2000 10);
    config =
      (fun ~domains ->
        Engine.Config.make ~num_pes:8 ~gc:(concurrent 50)
          ~marking:Dgr_core.Cycle.Flood_counters ~jitter:0.01 ~seed ~domains ());
    cap = 100_000;
    goal = Value speculative_deep_value;
  }

let lossy_job seed =
  let input, goal = fib_program 16 in
  let faults =
    {
      Faults.none with
      Faults.drop = 0.05;
      duplicate = 0.02;
      delay = 0.05;
      stall = 0.01;
      fault_seed = seed;
    }
  in
  {
    label = "fib-16-lossy";
    input;
    config =
      (fun ~domains ->
        Engine.Config.make ~num_pes:8 ~gc:(concurrent 50) ~faults ~seed ~domains ());
    cap = 250_000;
    goal;
  }

let crash_job seed =
  let faults =
    { Faults.none with Faults.crash = 0.004; crash_down_max = 40; fault_seed = seed }
  in
  {
    label = "fib-12-crash";
    input = Program (Prelude.fib 12);
    config =
      (fun ~domains ->
        Engine.Config.make ~num_pes:8 ~gc:(concurrent 50) ~faults ~seed ~domains ());
    cap = 20_000;
    goal = Survive (Prelude.fib_expected 12);
  }

(* Reference counting draws no random numbers, and speculative-deep's
   outcome barely moves with its jitter seed: one run each per round. *)
let refcount_job seed =
  let input, goal = fib_program 16 in
  {
    label = "fib-16-refcount";
    input;
    config =
      (fun ~domains -> Engine.Config.make ~num_pes:8 ~gc:Engine.Refcount ~seed ~domains ());
    cap = 200_000;
    goal;
  }

(* Jobs whose simulated outcome swings with their seed run several
   times per round, on independent sub-seeds: [seeded n seed k make] is
   [n] jobs from [make], on sub-seeds [k], [k + 1], ... of the workload
   seed. The metrics are sums or rates over a round's jobs, so more draws
   narrow their seed-to-seed spread; the storm, whose rounds are the
   longest, runs two. *)
let seeded n seed k make = List.init n (fun i -> make (derive seed (k + i)))

let storm seed = { name = "storm"; jobs = seeded 2 seed 0 storm_job }

let programs seed =
  {
    name = "programs";
    jobs = seeded 4 seed 0 fib16_job @ [ speculative_job (derive seed 10) ];
  }

(* The crash job keeps one fixed schedule (fault seed 13) at every
   workload seed: its host cost per step swings about sixfold from one
   schedule to another, which would swamp the workload's host metrics. *)
let faults_rc seed =
  {
    name = "faults-rc";
    jobs = seeded 4 seed 0 lossy_job @ [ crash_job 13; refcount_job (derive seed 20) ];
  }

let find name seed =
  match name with
  | "storm" -> Some (storm seed)
  | "programs" -> Some (programs seed)
  | "faults-rc" -> Some (faults_rc seed)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Building and judging one job.                                       *)
(* ------------------------------------------------------------------ *)

let build job =
  match job.input with
  | Program source -> Compile.load_string ~num_pes:8 source
  | Storm (spec, graph_seed) ->
    ( Builder.random ~num_pes:8 (Dgr_util.Rng.create graph_seed) spec,
      Dgr_reduction.Template.create_registry () )

(* Demand alone dies out quickly on a placeholder graph; spraying eager
   requests over every 8th live vertex keeps the pools busy while the
   collector works (the same priming as [dgr bench]'s storms). *)
let prime e job =
  Engine.inject_root_demand e;
  match job.input with
  | Storm _ ->
    List.iteri
      (fun i v ->
        if i mod 8 = 0 then Engine.inject e (Dgr_task.Task.request v Demand.Eager))
      (Graph.live_vids (Engine.graph e))
  | Program _ -> ()

let reached e job =
  match job.goal with
  | Value _ | Survive _ -> Engine.finished e
  | Collect _ -> (Engine.metrics e).Metrics.cycles_completed >= 1

let garbage_collected e =
  match Engine.cycle e with
  | Some c -> Dgr_core.Cycle.total_garbage_collected c
  | None -> 0

let show_result = function
  | None -> "no result"
  | Some v -> Format.asprintf "%a" Label.pp_value v

(* [Ok ()] when the job's output is right: the final graph is well formed
   (the GC-safety half of Theorem 1) and the goal is met. *)
let judge e job =
  match Validate.check (Engine.graph e) with
  | err :: _ -> Error ("Validate.check: " ^ err)
  | [] -> (
    let value_is n = Engine.result e = Some (Label.V_int n) in
    match job.goal with
    | Value n ->
      if value_is n then Ok ()
      else Error (Printf.sprintf "expected %d, got %s" n (show_result (Engine.result e)))
    | Survive n ->
      if Engine.result e = None || value_is n then Ok ()
      else Error (Printf.sprintf "expected %d, got %s" n (show_result (Engine.result e)))
    | Collect { live; garbage } ->
      let got_live = Graph.live_count (Engine.graph e)
      and got_garbage = garbage_collected e in
      if not (reached e job) then Error "no collection cycle completed"
      else if got_live <> live || got_garbage <> garbage then
        Error
          (Printf.sprintf "live %d (want %d), collected %d (want %d)" got_live live
             got_garbage garbage)
      else Ok ())
