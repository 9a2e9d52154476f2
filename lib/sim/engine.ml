open Dgr_util
open Dgr_graph
open Dgr_task
open Task
module Marker = Dgr_core.Marker
module Mutator = Dgr_core.Mutator
module Cycle = Dgr_core.Cycle
module Run = Dgr_core.Run
module Flood = Dgr_core.Flood
module Invariants = Dgr_core.Invariants
module Reducer = Dgr_reduction.Reducer
module Refcount = Dgr_baseline.Refcount
module Stw = Dgr_baseline.Stw

type gc_mode =
  | No_gc
  | Concurrent of { deadlock_every : int; idle_gap : int }
  | Stop_the_world of { every : int }
  | Refcount

module Config = struct
  type machine = {
    num_pes : int;
    tasks_per_step : int;
    marking_per_step : int;
    pool_policy : Pool.policy;
    speculate_if : bool;
    seed : int;
    domains : int;
  }

  type gc = {
    mode : gc_mode;
    heap_size : int option;
    gc_work_factor : int;
    marking : Cycle.scheme;
    recover_deadlock : bool;
  }

  type network = { latency : int; jitter : float; faults : Faults.spec; batch : bool }

  type t = { machine : machine; gc : gc; network : network }

  let make ?(num_pes = 4) ?(latency = 4) ?(tasks_per_step = 2) ?(marking_per_step = 8)
      ?(gc_work_factor = 8) ?(heap_size = Some 50_000) ?(pool_policy = Pool.Dynamic)
      ?(speculate_if = true) ?(gc = Concurrent { deadlock_every = 1; idle_gap = 50 })
      ?(marking = Cycle.Tree) ?(recover_deadlock = false) ?(jitter = 0.0) ?(seed = 0)
      ?(faults = Faults.none) ?(domains = 1) ?(batch = true) () =
    {
      machine =
        { num_pes; tasks_per_step; marking_per_step; pool_policy; speculate_if; seed; domains };
      gc = { mode = gc; heap_size; gc_work_factor; marking; recover_deadlock };
      network = { latency; jitter; faults; batch };
    }

  let default = make ()

  let num_pes t = t.machine.num_pes
  let seed t = t.machine.seed
  let domains t = t.machine.domains
  let with_domains v t = { t with machine = { t.machine with domains = v } }
  let with_batch v t = { t with network = { t.network with batch = v } }
end

type config = Config.t

(* Refcount traffic deferred to the step barrier: the (parent, child)
   pairs of every edge a PE (or the controller, during the barrier)
   added or removed this step, interleaved. *)
type rc_log = { inc : int Vec.t; dec : int Vec.t }

let rc_log () = { inc = Vec.create (); dec = Vec.create () }

(* Per-PE execution context. Everything a PE's budget touches during a
   step lives here (or in graph/pool state only its owner mutates), so
   shards on different domains share no mutable state until the step
   barrier merges them in ascending PE order. *)
type pe_ctx = {
  cpe : int;
  crng : Rng.t;  (** scheduling stream [Rng.stream ~seed cpe] *)
  mbox : Network.Mailbox.mb;  (** outgoing sends, flushed at the barrier *)
  ctrl : Task.t Vec.t;  (** controller-addressed tasks, replayed at the barrier *)
  pred : Reducer.t;  (** private reducer: own counters/park list, shared graph *)
  pm : Metrics.t;  (** private counters, absorbed at the barrier *)
  sub : Dgr_obs.Recorder.t option;  (** private event buffer, drained at the barrier *)
  mutable clin : int;  (** lineage of the task this PE is executing; -1 outside *)
  mutable cdepth : int;  (** causal depth its children inherit *)
  cdone : int Vec.t;  (** tickets of executed tasks, closed at the barrier *)
  inbox : Task.t Vec.t;
      (** tasks the network delivered to this PE this step, in delivery
          order; the PE's shard moves them into its pool before running
          its budgets *)
  inbox_stamps : int Vec.t;  (** their lineage stamps, parallel to [inbox] *)
  mutable cexec : (Task.t -> int -> unit) option;
      (** pre-bound [execute_task] — built on first use, reused by every
          budget drain so the inner loop allocates no closures *)
  ccoop : Mutator.coop_event Vec.t;
      (** cooperation events this PE's reductions deferred; replayed at
          the barrier in ascending PE order *)
  mutable cemit : (Task.mark -> unit) option;
      (** pre-bound mark emit ([pe_send] of a [Marking]) — built on first
          use so the marking inner loop allocates no closures *)
  crc : rc_log;  (** this PE's refcount traffic, applied at the barrier *)
}

(* The worker pool: [domains - 1] long-lived domains driven by a
   generation barrier. The main domain publishes a job and a new
   generation, runs shard 0 itself, then waits for every worker to check
   in. A shard that raises still checks in, leaving its exception in
   [failed]; the main domain re-raises the lowest failed shard's after
   the join. Workers are spawned lazily on the first parallel step (the
   OCaml runtime caps total domains) and joined by [dispose]. *)
type workers = {
  mutable doms : unit Domain.t array;
  mu : Mutex.t;
  cv : Condition.t;
  mutable job : (int -> unit) option;
  mutable gen : int;
  mutable done_count : int;
  mutable stop : bool;
  failed : (exn * Printexc.raw_backtrace) option array;  (** per shard, this job *)
}

exception Shard_failed of { step : int; shard : int; lo : int; hi : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Shard_failed { step; shard; lo; hi; exn } ->
      Some
        (Printf.sprintf "step %d, shard %d (PEs %d-%d): %s" step shard lo (hi - 1)
           (Printexc.to_string exn))
    | _ -> None)

type t = {
  cfg : config;
  (* Hot knobs, denormalized out of [cfg] so the step loop never chases
     three records per field. *)
  num_pes : int;
  latency : int;
  tasks_per_step : int;
  marking_per_step : int;
  gc_work_factor : int;
  jitter : float;
  gc_mode : gc_mode;
  domains : int;  (** shard count, clamped to [1, num_pes] *)
  g : Graph.t;
  pools : Pool.t array;
  net : Network.t;
  mut : Mutator.t;
  mutable red : Reducer.t;
  mutable cyc : Cycle.t option;
  rc : Refcount.t option;
  recorder : Dgr_obs.Recorder.t option;
  obs_on : bool;  (** [recorder <> None]; avoids building event records when off *)
  m : Metrics.t;
  lin : Dgr_obs.Lineage.t;  (** causal lineage tickets, one per pooled reduction *)
  prof : Profile.Sums.t;  (** wall-clock step-phase attribution *)
  mutable prof_steps : int;
  shard_ns : float array;
      (** profiler: shard [d]'s marking- and reduction-budget time at
          [2d] and [2d + 1], folded into [prof] at the barrier *)
  mutable now : int;
  mutable current_pe : int;  (** PE whose task is executing; -1 = controller *)
  mutable current_lin : int;  (** lineage of the injecting send; -1 = none *)
  mutable paused_until : int;
  mutable next_cycle_at : int;
  mutable next_stw_at : int;
  pe_rngs : Rng.t array;  (** per-PE scheduling streams, [Rng.stream ~seed pe] *)
  ctrl_rng : Rng.t;  (** the controller's stream, [Rng.stream ~seed (-1)] *)
  flt : Faults.t option;
  stall_until : int array;  (** per PE: first step it executes again *)
  (* Crash plane. [ckpts] is built lazily on the first step that can
     crash (so fault-free machines allocate nothing); [down_since] is -1
     for a PE that is up. All of it is serial state, written only at the
     top of a step (the crash tick) or between steps ({!inject_crash});
     the shards only {e read} [down_since] and [stall_until]. *)
  mutable ckpts : Checkpoint.t array;  (** per-PE segment checkpoints *)
  down_until : int array;  (** per PE: first step it may recover *)
  down_since : int array;  (** per PE: step it crashed; -1 = up *)
  mutable crash_used : bool;
      (** crashes possible (spec or injection): run the crash tick *)
  mutable rc_freed_batch : Vid.Set.t;
      (** vertices RC reclaimed since the last batch purge *)
  rc_ctrl : rc_log;  (** refcount traffic of the barrier's controller replay *)
  mutable in_step : bool;
      (** from the shards' start to the barrier's end: refcount hooks log
          into {!rc_log}s instead of applying *)
  mutable ctxs : pe_ctx array;
  mutable mboxes : Network.Mailbox.mb array;
      (** [ctxs]' mailboxes in PE order, for the sharded barrier flush *)
  mutable workers : workers option;
  (* Health watchdogs: window-based progress monitors, re-armed on any
     progress and fired at most once per stall episode (resp. window). *)
  mutable wd_mark_last : int;  (** [marking_executed] at last mark progress *)
  mutable wd_mark_since : int;  (** step of last mark progress *)
  mutable wd_mark_fired : bool;
  mutable wd_exec_last : int;  (** total executed at last progress *)
  mutable wd_exec_since : int;
  mutable wd_exec_fired : bool;
  mutable wd_retx_last : int;  (** [retransmits] at the last window boundary *)
  mutable wd_retx_at : int;  (** next retransmit-window boundary *)
  mutable emit_mark : Task.mark -> unit;
      (** [send] wrapped for the marker/flood spawn callbacks — allocated
          once so the marking inner loop builds no closures. *)
  mutable mark_only : bool;
      (** the shards drain marking only — set while the machine is
          paused for restructure but the next wave's marks may flow *)
  mutable coop_sink : Mutator.coop_event -> unit;
      (** routes a deferred cooperation event to the executing PE's
          context; installed on the mutator while the shards run *)
}

(* Forward reference: restructure's sharded home passes ride the worker
   pool, whose machinery lives below [create]; engines bind [each_home]
   through this cell (assigned once, next to [run_parallel]). *)
let each_home_cell : (t -> (int -> unit) -> unit) ref = ref (fun _ _ -> ())

let throughput t = Int.max 1 (t.num_pes * t.tasks_per_step)

let obs t kind =
  match t.recorder with None -> () | Some r -> Dgr_obs.Recorder.emit r kind

(* Destination PE of a task, or [-1] for controller-addressed tasks.
   Unboxed (no option) — this runs once per send. *)
let pe_of t task =
  let v = Task.exec_vid task in
  if v < 0 then -1 else Vertex.pe (Graph.vertex t.g v)

(* The PE whose budget is running on this domain, -1 outside the
   shards: it charges mutations for the ownership checker and routes
   refcount logs (the engine never touches [current_pe] from a worker);
   outside the shards the serial [current_pe] answers. *)
let dls_pe : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

(* A PE's scheduling randomness is its own splitmix stream derived from
   the config seed, so the jitter draws a PE sees depend only on its own
   send history — not on how the other PEs' sends interleave, and not on
   how many domains the machine is sharded across. The controller (and
   deadlock-recovery responses, injections, …) draws from stream -1. *)
let rng_for t =
  if t.current_pe >= 0 && t.current_pe < Array.length t.pe_rngs then
    t.pe_rngs.(t.current_pe)
  else t.ctrl_rng

(* The flood handler of the phase in progress, if any — the source of
   truth for what epoch termination credits should speak. *)
let active_flood t =
  match t.cyc with
  | None -> None
  | Some c -> (
    let plane =
      match Cycle.phase c with
      | Cycle.Idle -> None
      | Cycle.Mark_tasks -> Some Plane.MT
      | Cycle.Mark_root -> Some Plane.MR
    in
    match plane with
    | None -> None
    | Some p -> (
      match Cycle.handler_for_plane c p with
      | Some (Cycle.Flood_run fl) -> Some fl
      | Some (Cycle.Tree_run _) | None -> None))

let delay_of t ~rng ~src task pe =
  if pe = src then 1
  else begin
    (* Marking messages are tiny and bounded (§6) and ride a fast
       path: if they paid full data latency, a mutator expanding a
       deep structure could outrun the marking wavefront forever and
       the cycle would never terminate. *)
    let base =
      match task with
      | Marking _ -> Int.max 1 (t.latency / 4)
      | Reduction _ -> Int.max 1 t.latency
    in
    (* Seeded delivery jitter: occasionally a message takes longer,
       reordering arrivals — the interleaving adversary for the full
       machine. Deterministic for a given config seed. *)
    if t.jitter > 0.0 && Rng.float rng 1.0 < t.jitter then
      base + 1 + Rng.int rng (Int.max 1 t.latency)
    else base
  end

(* Marking dispatch, for the shards and the controller alike. Everything
   a mark handler touches is either owned by the executing PE (the target
   vertex's plane state — marks are delivered to the vertex's home) or a
   per-PE counter slot (run/flood tallies), so marking shards exactly
   like reduction; the handler table ([Cycle.handler_for_plane]) only
   changes at serial points, published to workers by the step barrier.
   A mark whose epoch is not the handler's wave is debris from a
   superseded wave (a crash restart, or the previous cycle's tail still
   draining while this one marks): it is dropped here, counted in [m],
   so stale tasks never touch a plane or credit a counter. *)
let execute_marking t ~pe ~emit (m : Metrics.t) mark =
  match t.cyc with
  | None -> ()
  | Some c -> (
    match Cycle.handler_for_plane c (Task.plane_of_mark mark) with
    | Some (Cycle.Tree_run run) ->
      if Task.mark_ep mark <> run.Run.wave then
        m.Metrics.stale_marks_dropped <- m.Metrics.stale_marks_dropped + 1
      else Marker.execute run ~pe ~emit mark
    | Some (Cycle.Flood_run fl) ->
      if Task.mark_ep mark <> fl.Flood.wave then
        m.Metrics.stale_marks_dropped <- m.Metrics.stale_marks_dropped + 1
      else Flood.execute fl ~pe ~emit mark
    | None -> () (* stray task from a finished run: drop *))

(* Controller-addressed tasks execute immediately: the final response of
   the computation, and marking returns to the dummy rootpar. *)
let execute_at_controller t task =
  match task with
  | Reduction r -> Reducer.execute t.red r
  | Marking m -> execute_marking t ~pe:0 ~emit:t.emit_mark t.m m

let send t task =
  let pe = pe_of t task in
  if pe < 0 then execute_at_controller t task
  else begin
    (if pe <> t.current_pe && t.current_pe >= 0 then
       t.m.Metrics.remote_messages <- t.m.Metrics.remote_messages + 1);
    let delay = delay_of t ~rng:(rng_for t) ~src:t.current_pe task pe in
    if pe = t.current_pe then t.m.Metrics.local_messages <- t.m.Metrics.local_messages + 1;
    if t.obs_on then
      obs t
        (Dgr_obs.Event.Send
           {
             kind = Task.obs_kind task;
             pe;
             vid = Task.exec_vid task;
             arrival = t.now + delay;
             remote = pe <> t.current_pe;
             lin = t.current_lin;
           });
    Network.send ~src:t.current_pe ~lin:t.current_lin t.net ~arrival:(t.now + delay) ~pe task
  end

(* A PE's send while its budget runs (possibly on a worker domain):
   controller tasks are deferred to the barrier, network sends are
   posted to the PE's private mailbox, and all bookkeeping lands in the
   context — nothing shared is touched. The delay computation and jitter
   stream are [send]'s, drawn from the PE's own stream. *)
let pe_send t ctx task =
  let pe = pe_of t task in
  if pe < 0 then Vec.push ctx.ctrl task
  else begin
    (if pe <> ctx.cpe then
       ctx.pm.Metrics.remote_messages <- ctx.pm.Metrics.remote_messages + 1);
    let delay = delay_of t ~rng:ctx.crng ~src:ctx.cpe task pe in
    if pe = ctx.cpe then ctx.pm.Metrics.local_messages <- ctx.pm.Metrics.local_messages + 1;
    (match ctx.sub with
    | None -> ()
    | Some r ->
      Dgr_obs.Recorder.emit r
        (Dgr_obs.Event.Send
           {
             kind = Task.obs_kind task;
             pe;
             vid = Task.exec_vid task;
             arrival = t.now + delay;
             remote = pe <> ctx.cpe;
             lin = ctx.clin;
           }));
    Network.Mailbox.post ctx.mbox ~lin:ctx.clin ~depth:ctx.cdepth ~arrival:(t.now + delay)
      ~pe task
  end

let purge_everywhere t pred =
  Array.fold_left (fun acc pool -> acc + Pool.purge pool pred) 0 t.pools
  + Network.purge t.net pred
  + Reducer.purge_parked t.red (fun r -> pred (Reduction r))

let purge_for_baseline t pred =
  let n = purge_everywhere t pred in
  t.m.Metrics.tasks_purged <- t.m.Metrics.tasks_purged + n;
  n

let create ?recorder ?(config = Config.default) g templates =
  let { Config.machine = mc; gc = gcc; network = nc } = config in
  (match gcc.Config.heap_size with
  | Some c -> Graph.set_capacity g (Some (Int.max c (Graph.vertex_count g)))
  | None -> Graph.set_capacity g None);
  let num_pes = mc.Config.num_pes in
  (* Hand the graph to the PEs: per-home free lists and striped fresh
     vids, so sharded allocation never shares a structure across PEs. *)
  if not (Graph.partitioned g) then Graph.partition g ~pes:num_pes;
  let mut = Mutator.create ?recorder ~spawn:(fun _ -> ()) g in
  let speculate_if = mc.Config.speculate_if in
  let red =
    Reducer.create ~speculate_if ?recorder ~graph:g ~mut ~templates ~send:(fun _ -> ()) ()
  in
  let rc =
    match gcc.Config.mode with
    | Refcount -> Some (Refcount.create g)
    | No_gc | Concurrent _ | Stop_the_world _ -> None
  in
  let flt =
    if Faults.active nc.Config.faults then Some (Faults.create nc.Config.faults) else None
  in
  let seed = mc.Config.seed in
  (* One ticket store for the whole machine. Tickets are opened inside
     [Network.send] — always on the main domain (inline sends, or the
     barrier mailbox flush) — so slot allocation is serial and its order
     a pure function of machine state, independent of [domains]. *)
  let lineage = Dgr_obs.Lineage.create () in
  let t =
    {
      cfg = config;
      num_pes;
      latency = nc.Config.latency;
      tasks_per_step = mc.Config.tasks_per_step;
      marking_per_step = mc.Config.marking_per_step;
      gc_work_factor = gcc.Config.gc_work_factor;
      jitter = nc.Config.jitter;
      gc_mode = gcc.Config.mode;
      domains = Int.max 1 (Int.min mc.Config.domains num_pes);
      g;
      pools =
        Array.init num_pes (fun pe ->
            Pool.create ?recorder ~lineage ~pe mc.Config.pool_policy g);
      net = Network.create ?recorder ~lineage ?faults:flt ~batch:nc.Config.batch ();
      mut;
      red;
      cyc = None;
      rc;
      recorder;
      obs_on = recorder <> None;
      m = Metrics.create ();
      lin = lineage;
      prof = Profile.Sums.create ();
      prof_steps = 0;
      shard_ns = Array.make (2 * num_pes) 0.0;
      now = 0;
      current_pe = -1;
      current_lin = -1;
      paused_until = 0;
      next_cycle_at = 0;
      next_stw_at = (match gcc.Config.mode with Stop_the_world { every } -> every | _ -> 0);
      pe_rngs = Array.init num_pes (fun pe -> Rng.stream ~seed pe);
      ctrl_rng = Rng.stream ~seed (-1);
      flt;
      stall_until = Array.make (Int.max 1 num_pes) 0;
      ckpts = [||];
      down_until = Array.make (Int.max 1 num_pes) 0;
      down_since = Array.make (Int.max 1 num_pes) (-1);
      crash_used = nc.Config.faults.Faults.crash > 0.0;
      rc_freed_batch = Vid.Set.empty;
      rc_ctrl = rc_log ();
      in_step = false;
      ctxs = [||];
      mboxes = [||];
      workers = None;
      wd_mark_last = 0;
      wd_mark_since = 0;
      wd_mark_fired = false;
      wd_exec_last = 0;
      wd_exec_since = 0;
      wd_exec_fired = false;
      wd_retx_last = 0;
      wd_retx_at = 64;
      emit_mark = ignore;
      mark_only = false;
      coop_sink = ignore;
    }
  in
  t.emit_mark <- (fun mark -> send t (Marking mark));
  mut.Mutator.spawn <- t.emit_mark;
  mut.Mutator.coop_pe <- (fun () -> Int.max 0 t.current_pe);
  (* A mark the transport coalesced away still owes its parent a return
     credit (tree) or an executed count (flood): synthesize it here, as
     if the absorbed twin had executed and immediately returned. The
     surviving twin keeps the wave's progress honest — a subtree is
     never considered marked before a mark actually traverses it.
     Coalescing happens wherever the physical send does — at the
     barrier mailbox flush, or inline for the controller's own sends —
     and both are fixed, domain-count-free orders. Two marks can only
     coalesce when every field matches, epoch included; a stale pair
     still coalesces in the network, but owes its dead wave nothing the
     dispatch-time epoch drop won't discard, so only current-wave marks
     synthesize credit here. *)
  Network.set_on_coalesce t.net (fun ~pe mark ->
      match t.cyc with
      | None -> ()
      | Some c -> (
        match Cycle.handler_for_plane c (Task.plane_of_mark mark) with
        | Some (Cycle.Tree_run run) -> (
          match mark with
          | Mark1 { par; _ } | Mark2 { par; _ } | Mark3 { par; _ } ->
            if Task.mark_ep mark = run.Run.wave then
              send t
                (Marking
                   (Return
                      { plane = Task.plane_of_mark mark; par; ep = Task.mark_ep mark }))
          | Return _ -> () (* returns never coalesce *))
        | Some (Cycle.Flood_run fl) ->
          if Task.mark_ep mark = fl.Flood.wave then Flood.count_coalesced fl ~pe
        | None -> () (* stray mark from a finished run: nothing owed *)));
  (* The reserve is per-home now that parking consults the executing
     vertex's partition ({!Graph.headroom_for}): a quarter of the heap
     globally, i.e. a quarter of each home's share. *)
  let speculation_reserve =
    match gcc.Config.heap_size with Some c -> c / 4 / Int.max 1 num_pes | None -> 0
  in
  (* Rebuild the reducer with the real send, preserving the mutator. *)
  t.red <-
    Reducer.create ~speculate_if ~speculation_reserve ?recorder ~graph:g ~mut ~templates
      ~send:(fun task -> send t task)
      ();
  t.ctxs <-
    Array.init num_pes (fun pe ->
        let sub =
          match recorder with
          | None -> None
          | Some _ ->
            (* Sized for one step's events of one PE; [drain_into] raises
               if it ever wraps, so overflow is loud, not silent. *)
            Some (Dgr_obs.Recorder.create ~capacity:(1 lsl 14) ~sample_every:0 ~num_pes ())
        in
        let cell = ref None in
        let pred =
          Reducer.create ~speculate_if ~speculation_reserve ?recorder:sub ~stuck_of:t.red
            ~graph:g ~mut ~templates
            ~send:(fun task ->
              match !cell with Some ctx -> pe_send t ctx task | None -> assert false)
            ()
        in
        let ctx =
          {
            cpe = pe;
            crng = t.pe_rngs.(pe);
            mbox = Network.Mailbox.create ();
            ctrl = Vec.create ();
            pred;
            pm = Metrics.create ();
            sub;
            clin = -1;
            cdepth = 0;
            cdone = Vec.create ();
            inbox = Vec.create ();
            inbox_stamps = Vec.create ();
            cexec = None;
            ccoop = Vec.create ();
            cemit = None;
            crc = rc_log ();
          }
        in
        cell := Some ctx;
        ctx);
  t.mboxes <- Array.map (fun ctx -> ctx.mbox) t.ctxs;
  t.coop_sink <-
    (fun ev ->
      let pe = Domain.DLS.get dls_pe in
      Vec.push t.ctxs.(if pe >= 0 then pe else 0).ccoop ev);
  (match rc with
  | Some rc ->
    (* While a step runs the hooks only log — a PE into its own context,
       the barrier's controller replay into [rc_ctrl] — and the barrier
       applies the logs ([apply_rc_logs]). Outside a step they apply
       immediately. *)
    let log_for () =
      let pe = Domain.DLS.get dls_pe in
      if pe >= 0 then t.ctxs.(pe).crc else t.rc_ctrl
    in
    let log v a c =
      Vec.push v a;
      Vec.push v c
    in
    mut.Mutator.on_connect <-
      (fun a c -> if t.in_step then log (log_for ()).inc a c else Refcount.on_connect rc a c);
    mut.Mutator.on_disconnect <-
      (fun a c ->
        if t.in_step then log (log_for ()).dec a c else Refcount.on_disconnect rc a c);
    (* A reclaimed slot may be recycled by the free list: tasks still
       addressing dead vertices are expunged in one batch per step (see
       [flush_rc_purge]) before any slot can be handed out again. *)
    Refcount.set_on_free rc (fun v -> t.rc_freed_batch <- Vid.Set.add v t.rc_freed_batch);
    if Graph.has_root g then Refcount.pin rc (Graph.root g)
  | None -> ());
  (match gcc.Config.mode with
  | Concurrent { deadlock_every; idle_gap } ->
    let purge_tasks pred = purge_for_baseline t pred in
    (* taskroot_i from per-PE local knowledge: each PE enumerates the
       endpoint vids of the pending reduction tasks it can see — its own
       pool, parked expansions homed on it, and the in-flight frames
       bound for it. The transport's frames are bucketed by destination
       in one sweep on PE 0's turn (the cycle visits PEs in ascending
       order) and served per PE after; no global snapshot or set is
       assembled — cross-PE duplicates die on the vertex seed stamp. *)
    let net_scratch = Array.init num_pes (fun _ -> Vec.create ()) in
    let iter_pe_endpoints pe f =
      if pe = 0 then begin
        Array.iter Vec.clear net_scratch;
        Network.iter_in_flight_dst t.net (fun ~dst task ->
            match task with
            | Reduction r ->
              if dst >= 0 && dst < num_pes then
                Task.iter_reduction_endpoints (fun v -> Vec.push net_scratch.(dst) v) r
            | Marking _ -> ())
      end;
      Pool.iter_tasks t.pools.(pe) (fun task ->
          match task with
          | Reduction r -> Task.iter_reduction_endpoints f r
          | Marking _ -> ());
      Vec.iter f net_scratch.(pe);
      Reducer.iter_parked t.red (fun r ->
          let home = pe_of t (Reduction r) in
          if home = pe || (home < 0 && pe = 0) then Task.iter_reduction_endpoints f r)
    in
    let reprioritize () =
      Array.fold_left (fun acc pool -> acc + Pool.reprioritize pool) 0 t.pools
    in
    let env =
      {
        Cycle.spawn_mark = (fun mark -> send t (Marking mark));
        pes = num_pes;
        iter_pe_endpoints;
        purge_tasks;
        reprioritize;
        each_home = (fun f -> !each_home_cell t f);
        now = (fun () -> t.now);
      }
    in
    t.cyc <-
      Some
        (Cycle.create ~deadlock_every ~scheme:gcc.Config.marking
           ~detection_window:(2 * Int.max 1 nc.Config.latency)
           ?recorder g mut env);
    (* Termination credits (flood scheme): every physical transmission
       samples the sending PE's counters via [credit_of]; arriving
       credits — piggybacked or standalone heartbeats — flow into the
       cycle's detector, which discards wrong-epoch noise itself. *)
    Network.set_credit_of t.net (fun pe ->
        match active_flood t with
        | Some fl when pe >= 0 && pe < num_pes ->
          let sent, executed = Flood.credit fl ~pe in
          Some (fl.Flood.wave, sent, executed)
        | _ -> None);
    Network.set_on_credit t.net (fun ~pe ~epoch ~sent ~executed ->
        match t.cyc with
        | Some c -> Cycle.learn_credit c ~pe ~epoch ~sent ~executed
        | None -> ());
    t.next_cycle_at <- idle_gap
  | No_gc | Stop_the_world _ | Refcount -> ());
  t

let config t = t.cfg

let recorder t = t.recorder

let graph t = t.g

let reducer t = t.red

let mutator t = t.mut

let cycle t = t.cyc

let refcount t = t.rc

let metrics t = t.m

let lineage t = t.lin

let profile t = Profile.of_sums ~steps:t.prof_steps t.prof

let faults t = t.flt

let now t = t.now

let enable_ownership_checks t =
  let current_pe () =
    let d = Domain.DLS.get dls_pe in
    if d >= 0 then d else t.current_pe
  in
  t.mut.Mutator.guard <- (fun v -> Invariants.ownership_guard t.g ~current_pe v)

(* Injection mints a fresh lineage id: every task the machine executes on
   behalf of this one — transitively, through every send — carries it. *)
let inject t task =
  t.current_pe <- -1;
  t.current_lin <- Dgr_obs.Lineage.new_lineage t.lin ~now:t.now;
  send t task;
  t.current_lin <- -1

let inject_root_demand t = inject t (Reducer.initial_task t.red)

let pending_tasks t =
  let pooled =
    Array.fold_left (fun acc pool -> List.rev_append (Pool.tasks pool) acc) [] t.pools
  in
  List.map (fun r -> Reduction r) (Reducer.parked t.red)
  @ List.rev_append (Network.in_flight t.net) pooled

let locate_task t pred =
  let acc = ref [] in
  Array.iteri
    (fun pe pool ->
      List.iter
        (fun task ->
          if pred task then
            acc := Printf.sprintf "pool[pe=%d] %s" pe (Task.to_string task) :: !acc)
        (Pool.tasks pool))
    t.pools;
  List.iter
    (fun task ->
      if pred task then acc := Printf.sprintf "network %s" (Task.to_string task) :: !acc)
    (Network.in_flight t.net);
  !acc

let pending_reduction_tasks t =
  List.filter_map (function Reduction r -> Some r | Marking _ -> None) (pending_tasks t)

let quiescent t =
  Array.for_all Pool.is_empty t.pools
  && Network.size t.net = 0
  && Reducer.parked_count t.red = 0
  && match t.cyc with None -> true | Some c -> Cycle.phase c = Cycle.Idle

(* Batch-expunge tasks addressing RC-reclaimed vertices; must run before
   any allocation can recycle the slots, i.e. before the next shards
   run. *)
let flush_rc_purge t =
  if not (Vid.Set.is_empty t.rc_freed_batch) then begin
    let dead = t.rc_freed_batch in
    t.rc_freed_batch <- Vid.Set.empty;
    if Reducer.stuck_count t.red > 0 then Vid.Set.iter (Reducer.forget_stuck t.red) dead;
    ignore
      (purge_for_baseline t (fun task ->
           match task with
           | Reduction r ->
             Task.reduction_endpoint_exists (fun v -> Vid.Set.mem v dead) r
           | Marking _ -> false))
  end

(* Refcount at the barrier — §4's strawman as increment and decrement
   messages, delivered once per step: every logged increment, then every
   logged decrement, each pass in ascending PE order with the
   controller's log last, cascades running serially here. Increments
   before decrements is the deferred-RC rule: a vertex one PE unlinks
   while another links it in the same step is never freed. The purge
   follows at once, before anything can allocate a reclaimed slot. *)
let apply_pairs v f =
  for i = 0 to (Vec.length v / 2) - 1 do
    f (Vec.get v (2 * i)) (Vec.get v ((2 * i) + 1))
  done;
  Vec.clear v

let apply_rc_logs t rc =
  let inc = Refcount.on_connect rc and dec = Refcount.on_disconnect rc in
  Array.iter (fun ctx -> apply_pairs ctx.crc.inc inc) t.ctxs;
  apply_pairs t.rc_ctrl.inc inc;
  Array.iter (fun ctx -> apply_pairs ctx.crc.dec dec) t.ctxs;
  apply_pairs t.rc_ctrl.dec dec;
  flush_rc_purge t

(* Decompose a ticketed task's latency at the moment it executes: network
   transit (send → fault-free arrival), retransmit delay (arrival →
   actual delivery), queue wait (delivery → execution) and end-to-end
   (send → execution, counting the execution step itself). *)
let note_latency m l stamp ~now =
  let sent = Dgr_obs.Lineage.sent_of l stamp in
  let arrival = Dgr_obs.Lineage.arrival_of l stamp in
  let delivered = Dgr_obs.Lineage.delivered_of l stamp in
  Dgr_obs.Hist.add m.Metrics.lat_net (arrival - sent);
  Dgr_obs.Hist.add m.Metrics.lat_retx (delivered - arrival);
  Dgr_obs.Hist.add m.Metrics.lat_queue (now - delivered);
  Dgr_obs.Hist.add m.Metrics.lat_e2e (now - sent + 1)

let cemit_for t ctx =
  match ctx.cemit with
  | Some f -> f
  | None ->
    let f mark = pe_send t ctx (Marking mark) in
    ctx.cemit <- Some f;
    f

(* Execute one pooled task on its PE. Latency lands in the context's
   private sink (histogram absorption is associative, so the merged
   totals are independent of sharding); ticket closes are deferred to
   the barrier, where they run in ascending PE order — a fixed,
   domain-count-free order. Ticket reads are safe off the main domain:
   between barriers the store is never mutated. *)
let execute_task t ctx task stamp =
  if stamp >= 0 then begin
    note_latency ctx.pm t.lin stamp ~now:t.now;
    ctx.clin <- Dgr_obs.Lineage.lin_of t.lin stamp;
    ctx.cdepth <- Dgr_obs.Lineage.depth_of t.lin stamp + 1
  end
  else begin
    ctx.clin <- -1;
    ctx.cdepth <- 0
  end;
  (match ctx.sub with
  | None -> ()
  | Some r ->
    Dgr_obs.Recorder.emit r
      (Dgr_obs.Event.Execute
         {
           kind = Task.obs_kind task;
           pe = ctx.cpe;
           vid = Task.exec_vid task;
           lin = ctx.clin;
         }));
  (match task with
  | Reduction r ->
    ctx.pm.Metrics.reduction_executed <- ctx.pm.Metrics.reduction_executed + 1;
    Reducer.execute ctx.pred r
  | Marking m ->
    ctx.pm.Metrics.marking_executed <- ctx.pm.Metrics.marking_executed + 1;
    execute_marking t ~pe:ctx.cpe ~emit:(cemit_for t ctx) ctx.pm m);
  if stamp >= 0 then Vec.push ctx.cdone stamp;
  ctx.clin <- -1;
  ctx.cdepth <- 0

(* GC work (tracing a vertex, sweeping a slot) is much lighter than
   executing a task; [gc_work_factor] work units fit in one task slot. *)
let pause t ~reason work =
  let per_step = throughput t * Int.max 1 t.gc_work_factor in
  let steps = (work + per_step - 1) / per_step in
  Metrics.record_pause t.m steps;
  obs t (Dgr_obs.Event.Pause { steps; reason });
  t.paused_until <- Int.max t.paused_until (t.now + steps)

(* ⊥-recovery (the paper's footnote 5): a deadlocked region never harms
   anyone, but in a multi-user machine its requesters should not wait
   forever. Rewrite each deadlocked operator vertex to an error value and
   answer its requesters — the error then propagates through strict
   operators like any other value. Vertices that already hold values are
   left alone (they are in the formal DL set only because their consumer
   is stuck). *)
let recover_deadlocks t report =
  List.iter
    (fun v ->
      let vx = Graph.vertex t.g v in
      if (not (Vertex.free vx)) && not (Label.is_whnf (Vertex.label vx)) then begin
        Vertex.set_label vx @@ Label.Err "deadlock";
        t.m.Metrics.deadlocks_recovered <- t.m.Metrics.deadlocks_recovered + 1;
        let entries = (Vertex.requested vx) in
        List.iter
          (fun (e : Vertex.request_entry) ->
            send t
              (Reduction
                 (Respond
                    {
                      src = v;
                      dst = e.Vertex.who;
                      value = Label.V_err "deadlock";
                      key = e.Vertex.key;
                      demand = e.Vertex.demand;
                    })))
          entries;
        Vertex.clear_requesters vx;
        List.iter (fun c -> Mutator.delete_reference t.mut ~a:v ~b:c) (Vertex.args vx);
        Vertex.clear_reduction_state vx
      end)
    report.Dgr_core.Restructure.deadlocked

(* Memory pressure: collect early when the allocatable reserve runs low
   (an eighth of the heap, at least 64 slots). *)
let under_pressure t =
  match Graph.capacity t.g with
  | None -> false
  | Some c -> Graph.headroom t.g < Int.max 64 (c / 8)

(* Re-inject allocation-stalled expansions once the free list has a
   chance of supplying them. *)
let unpark t =
  match Reducer.drain_parked t.red with
  | [] -> ()
  | tasks ->
    List.iter
      (fun r ->
        let pe = pe_of t (Reduction r) in
        if pe >= 0 then Network.send ~src:(-1) t.net ~arrival:(t.now + 1) ~pe (Reduction r))
      tasks

let gc_control t =
  match t.gc_mode with
  | No_gc | Refcount ->
    (* Re-inject stalled expansions only when the free list has actually
       recovered; under persistent pressure they stay parked (and a
       collector-less machine simply quiesces). *)
    if t.now land 63 = 0 && not (under_pressure t) then unpark t
  | Stop_the_world { every } ->
    (* Memory pressure pulls the schedule in, but never below a quarter
       of the period — a full collection per step would thrash. *)
    if
      every > 0
      && (t.now >= t.next_stw_at
         || (under_pressure t && t.now >= t.next_stw_at - (3 * every / 4)))
    then begin
      if t.now < t.next_stw_at then obs t (Dgr_obs.Event.Heap_pressure { headroom = Graph.headroom t.g });
      let report = Stw.collect t.g ~purge_tasks:(purge_for_baseline t) in
      t.m.Metrics.stw_collections <- t.m.Metrics.stw_collections + 1;
      pause t ~reason:Dgr_obs.Event.Stw_pause report.Stw.work;
      if Reducer.stuck_count t.red > 0 then
        List.iter (Reducer.forget_stuck t.red) report.Stw.garbage;
      t.next_stw_at <- Int.max t.paused_until t.now + every;
      unpark t
    end
    else if t.now land 63 = 0 && not (under_pressure t) then unpark t
  | Concurrent { idle_gap; _ } -> (
    match t.cyc with
    | None -> ()
    | Some c -> (
      (match Cycle.poll c with
      | Some report ->
        t.m.Metrics.cycles_completed <- t.m.Metrics.cycles_completed + 1;
        (* Restructure is the concurrent scheme's only stop: a sweep over
           the live vertices plus the slots being reclaimed. *)
        pause t ~reason:Dgr_obs.Event.Restructure_pause
          (Graph.live_count t.g + List.length report.Dgr_core.Restructure.garbage);
        (* Reclaimed vertices leave the stuck set: it stays bounded by the
           live heap, and a recycled vid can be reported stuck afresh. *)
        if Reducer.stuck_count t.red > 0 then
          List.iter (Reducer.forget_stuck t.red) report.Dgr_core.Restructure.garbage;
        if t.cfg.Config.gc.Config.recover_deadlock then recover_deadlocks t report;
        (* Decentralized initiation: the next cycle's mark wave may open
           while this cycle's restructure pause is still draining — the
           wave is epoch-tagged and the mutator is the only thing the
           pause actually stops. *)
        t.next_cycle_at <- t.now + idle_gap;
        unpark t
      | None -> if t.now land 63 = 0 && not (under_pressure t) then unpark t);
      if Cycle.phase c = Cycle.Idle && (t.now >= t.next_cycle_at || under_pressure t) then begin
        if t.now < t.next_cycle_at then
          obs t (Dgr_obs.Event.Heap_pressure { headroom = Graph.headroom t.g });
        Cycle.start_cycle c
      end))

let exec_for t ctx =
  match ctx.cexec with
  | Some f -> f
  | None ->
    let f task stamp = execute_task t ctx task stamp in
    ctx.cexec <- Some f;
    f

(* Whether PE [pe] executes this step: it is up and not stalled. Both
   are serial state, written at the top of the step (crash tick, stall
   pre-pass) before any shard reads them. *)
let runs t pe = t.down_since.(pe) < 0 && t.now >= t.stall_until.(pe)

(* Shard [d] owns the PE range [d*n/domains, (d+1)*n/domains). It runs
   every PE's marking budget, then every PE's reduction budget (which
   lends idle slots to marking — see [Pool.drain]), reading the clock
   once per pass rather than per PE. Reordering PEs within a shard is
   safe for the same reason shards may run on different domains at all:
   between barriers a PE touches only its own context, pool and homed
   vertices, so no PE's budget can observe another's. *)
let run_shard t d =
  let lo = d * t.num_pes / t.domains and hi = (d + 1) * t.num_pes / t.domains in
  let t0 = Profile.now () in
  for pe = lo to hi - 1 do
    let ctx = t.ctxs.(pe) and pool = t.pools.(pe) in
    (* This step's deliveries, in delivery order — a down or stalled
       PE's too: its pool keeps them for when it runs again. *)
    for i = 0 to Vec.length ctx.inbox - 1 do
      Pool.push_stamped pool ~stamp:(Vec.get ctx.inbox_stamps i) (Vec.get ctx.inbox i)
    done;
    Vec.clear ctx.inbox;
    Vec.clear ctx.inbox_stamps;
    if runs t pe then begin
      Domain.DLS.set dls_pe pe;
      Pool.drain_marking pool ~budget:t.marking_per_step (exec_for t ctx)
    end
  done;
  let t1 = Profile.now () in
  t.shard_ns.(2 * d) <- t.shard_ns.(2 * d) +. (t1 -. t0);
  (* During a restructure pause only the marking budget runs: the
     mutator is stopped, the next wave's marks are not. *)
  if not t.mark_only then begin
    for pe = lo to hi - 1 do
      if runs t pe then begin
        Domain.DLS.set dls_pe pe;
        Pool.drain t.pools.(pe) ~budget:t.tasks_per_step (exec_for t t.ctxs.(pe))
      end
    done;
    t.shard_ns.((2 * d) + 1) <- t.shard_ns.((2 * d) + 1) +. (Profile.now () -. t1)
  end;
  Domain.DLS.set dls_pe (-1)

(* Run shard [d] of [job], keeping what it raises in [failed.(d)]. *)
let run_caught w job d =
  try job d with e -> w.failed.(d) <- Some (e, Printexc.get_raw_backtrace ())

let spawn_workers t =
  let w =
    {
      doms = [||];
      mu = Mutex.create ();
      cv = Condition.create ();
      job = None;
      gen = 0;
      done_count = 0;
      stop = false;
      failed = Array.make t.domains None;
    }
  in
  let worker i () =
    let my_gen = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock w.mu;
      while (not w.stop) && w.gen = !my_gen do
        Condition.wait w.cv w.mu
      done;
      if w.stop then begin
        Mutex.unlock w.mu;
        continue := false
      end
      else begin
        let g = w.gen and job = w.job in
        Mutex.unlock w.mu;
        (match job with Some f -> run_caught w f (i + 1) | None -> ());
        my_gen := g;
        Mutex.lock w.mu;
        w.done_count <- w.done_count + 1;
        Condition.broadcast w.cv;
        Mutex.unlock w.mu
      end
    done
  in
  w.doms <- Array.init (t.domains - 1) (fun i -> Domain.spawn (worker i));
  w

(* One parallel phase: publish [job], run shard 0 on the main domain,
   wait for the workers. The mutex pair on each side doubles as the
   memory barrier that publishes every shard's writes to the merge.
   [job d] must touch only shard [d]'s state — the execution budgets and
   restructure's home passes both qualify. Every shard checks in even
   when it raises, so the join always completes; then the lowest failed
   shard's exception is re-raised as [Shard_failed] with the step and
   the shard's PE range. *)
let run_parallel t job =
  let w =
    match t.workers with
    | Some w -> w
    | None ->
      let w = spawn_workers t in
      t.workers <- Some w;
      w
  in
  Mutex.lock w.mu;
  w.job <- Some job;
  w.gen <- w.gen + 1;
  w.done_count <- 0;
  Condition.broadcast w.cv;
  Mutex.unlock w.mu;
  run_caught w job 0;
  Mutex.lock w.mu;
  while w.done_count < Array.length w.doms do
    Condition.wait w.cv w.mu
  done;
  w.job <- None;
  Mutex.unlock w.mu;
  for d = 0 to t.domains - 1 do
    match w.failed.(d) with
    | None -> ()
    | Some (exn, bt) ->
      Array.fill w.failed 0 t.domains None;
      let lo = d * t.num_pes / t.domains and hi = (d + 1) * t.num_pes / t.domains in
      Printexc.raise_with_backtrace (Shard_failed { step = t.now; shard = d; lo; hi; exn }) bt
  done

(* Restructure's sharded passes: run [f] over every home PE, sharded
   across the domains exactly like the execution budgets. The span is
   attributed to the profiler's parallel(izable) restructure bucket. *)
let each_home_run t f =
  let r0 = Profile.now () in
  let job d =
    let lo = d * t.num_pes / t.domains and hi = (d + 1) * t.num_pes / t.domains in
    for pe = lo to hi - 1 do
      f pe
    done
  in
  if t.domains > 1 then run_parallel t job else job 0;
  t.prof.Profile.Sums.restr_ns <- t.prof.Profile.Sums.restr_ns +. (Profile.now () -. r0)

let () = each_home_cell := each_home_run

(* The barrier mailbox flush, destination-sharded (see the
   [flush_shard_*] trio in {!Network}): grouping tasks into frames is
   per-destination work, so it runs on the worker pool sharded by the
   same PE ranges as the execution budgets, and only the globally
   ordered finalization (uids, tickets, coalesce callbacks, counters)
   stays serial. At [domains = 1] the same two passes run inline — the
   code path, and therefore the merged network state, is identical at
   every domain count. Grouping is also kept inline on hosts without a
   second core ([Domain.recommended_domain_count]): the shard jobs are
   data-disjoint either way, so where they run never shows in the
   bytes, and an oversubscribed host skips a worker-pool round-trip
   per step. The grouping span counts as parallelizable in the
   profiler ([pflush_ns]); the finalization as serial. The staged area
   is always empty here — [deliver_into] flushed it at the top of the
   step and every send since was posted to a mailbox — which
   [flush_shard_plan] checks. *)
let flush_on_workers = Domain.recommended_domain_count () > 1

let flush_mailboxes t =
  let f0 = Profile.now () in
  Network.flush_shard_plan t.net t.mboxes;
  let job d =
    let lo = d * t.num_pes / t.domains and hi = (d + 1) * t.num_pes / t.domains in
    Network.flush_shard_group t.net t.mboxes ~lo ~hi
  in
  if t.domains > 1 && flush_on_workers then run_parallel t job
  else
    for d = 0 to t.domains - 1 do
      job d
    done;
  let f1 = Profile.now () in
  t.prof.Profile.Sums.pflush_ns <- t.prof.Profile.Sums.pflush_ns +. (f1 -. f0);
  Network.flush_shard_finalize t.net t.mboxes;
  t.prof.Profile.Sums.flush_ns <- t.prof.Profile.Sums.flush_ns +. (Profile.now () -. f1)

let dispose t =
  match t.workers with
  | None -> ()
  | Some w ->
    Mutex.lock w.mu;
    w.stop <- true;
    Condition.broadcast w.cv;
    Mutex.unlock w.mu;
    Array.iter Domain.join w.doms;
    t.workers <- None

(* The step barrier: merge every context back into the shared machine, in
   ascending PE order throughout, so the merged state is a pure function
   of the per-PE buffers — independent of domain count and scheduling.
   Order within the merge: events first (so traces read
   execute-then-control), then counters, then network sends (the queue is
   FIFO-stable among equal arrivals, so PE-ordered flushing fixes their
   delivery order), then the deferred cooperation events (whose mark
   spawns are charged to the deferring PE and draw its jitter stream),
   then the deferred controller tasks (whose own sends go straight to the
   network, after every mailbox send — again a fixed order), and last the
   step's refcount traffic ([apply_rc_logs]). *)
let barrier t =
  t.current_pe <- -1;
  Mutator.set_defer t.mut None;
  let m0 = Profile.now () in
  (match t.recorder with
  | None -> ()
  | Some r ->
    Array.iter
      (fun ctx ->
        match ctx.sub with
        | Some s -> Dgr_obs.Recorder.absorb_chunks ~src:s ~dst:r
        | None -> ())
      t.ctxs);
  let m1 = Profile.now () in
  t.prof.Profile.Sums.drain_ns <- t.prof.Profile.Sums.drain_ns +. (m1 -. m0);
  Array.iter
    (fun ctx ->
      Reducer.absorb t.red ctx.pred;
      Metrics.absorb t.m ctx.pm)
    t.ctxs;
  for d = 0 to t.domains - 1 do
    t.prof.Profile.Sums.mark_ns <- t.prof.Profile.Sums.mark_ns +. t.shard_ns.(2 * d);
    t.prof.Profile.Sums.red_ns <- t.prof.Profile.Sums.red_ns +. t.shard_ns.((2 * d) + 1);
    t.shard_ns.(2 * d) <- 0.0;
    t.shard_ns.((2 * d) + 1) <- 0.0
  done;
  let m2 = Profile.now () in
  t.prof.Profile.Sums.absorb_ns <- t.prof.Profile.Sums.absorb_ns +. (m2 -. m1);
  (* Close the executed tasks' tickets before flushing the mailboxes: the
     freed slots are recycled by the flush's opens, in ascending PE order
     both times, so slot allocation stays a pure function of the step's
     buffers. *)
  Array.iter
    (fun ctx ->
      Dgr_obs.Lineage.close_many t.lin (Vec.unsafe_data ctx.cdone)
        ~len:(Vec.length ctx.cdone) ~now:t.now;
      Vec.clear ctx.cdone)
    t.ctxs;
  let m3 = Profile.now () in
  t.prof.Profile.Sums.close_ns <- t.prof.Profile.Sums.close_ns +. (m3 -. m2);
  flush_mailboxes t;
  let m4 = Profile.now () in
  Array.iter
    (fun ctx ->
      if Vec.length ctx.ccoop > 0 then begin
        t.current_pe <- ctx.cpe;
        Vec.iter (fun ev -> Mutator.replay t.mut ev) ctx.ccoop;
        Vec.clear ctx.ccoop
      end)
    t.ctxs;
  t.current_pe <- -1;
  Array.iter
    (fun ctx ->
      Vec.iter (fun task -> execute_at_controller t task) ctx.ctrl;
      Vec.clear ctx.ctrl)
    t.ctxs;
  t.in_step <- false;
  (match t.rc with Some rc -> apply_rc_logs t rc | None -> ());
  t.prof.Profile.Sums.replay_ns <- t.prof.Profile.Sums.replay_ns +. (Profile.now () -. m4)

(* Health watchdogs. Window-based: each monitor re-arms on any progress
   (or while the machine is legitimately paused) and fires at most once
   per stall episode, so a long outage reads as one event, not a siren.
   All inputs are deterministic machine state — the events land in traces
   and must be identical at every domain count. *)
let wd_window t = Int.max 32 (8 * t.latency)

let health_check t =
  let now = t.now in
  let paused = now < t.paused_until in
  (* Mark wave: a cycle is running but no marking task has executed for a
     full window — the wave is stuck behind a stalled PE or lost marks. *)
  let cycle_active =
    match t.cyc with Some c -> Cycle.phase c <> Cycle.Idle | None -> false
  in
  if cycle_active && not paused then begin
    if t.m.Metrics.marking_executed > t.wd_mark_last then begin
      t.wd_mark_last <- t.m.Metrics.marking_executed;
      t.wd_mark_since <- now;
      t.wd_mark_fired <- false
    end
    else if (not t.wd_mark_fired) && now - t.wd_mark_since >= wd_window t then begin
      t.wd_mark_fired <- true;
      t.m.Metrics.health_mark_stalls <- t.m.Metrics.health_mark_stalls + 1;
      obs t
        (Dgr_obs.Event.Health
           { health = Dgr_obs.Event.Mark_wave_stall; value = now - t.wd_mark_since })
    end
  end
  else begin
    t.wd_mark_last <- t.m.Metrics.marking_executed;
    t.wd_mark_since <- now;
    t.wd_mark_fired <- false
  end;
  (* Quiescence: work is waiting (pooled or in flight) but nothing has
     executed for several windows — livelock, or frames stuck behind
     repeated losses. The window is 4× the mark watchdog's so a healthy
     exponential-backoff retransmit never trips it. *)
  let executed = t.m.Metrics.reduction_executed + t.m.Metrics.marking_executed in
  let work_waiting =
    (not (Array.for_all Pool.is_empty t.pools)) || Network.size t.net > 0
  in
  if
    executed > t.wd_exec_last || paused || (not work_waiting)
    || t.m.Metrics.completion_step <> None
  then begin
    t.wd_exec_last <- executed;
    t.wd_exec_since <- now;
    t.wd_exec_fired <- false
  end
  else if (not t.wd_exec_fired) && now - t.wd_exec_since >= 4 * wd_window t then begin
    t.wd_exec_fired <- true;
    t.m.Metrics.health_quiescence_stalls <- t.m.Metrics.health_quiescence_stalls + 1;
    obs t
      (Dgr_obs.Event.Health
         { health = Dgr_obs.Event.Quiescence_stall; value = now - t.wd_exec_since })
  end;
  (* Retransmit storm: the windowed retransmit rate exceeds ~4 per PE per
     64 steps — the delivery timers are thrashing, not recovering. *)
  if now >= t.wd_retx_at then begin
    let delta = t.m.Metrics.retransmits - t.wd_retx_last in
    if delta >= 4 * t.num_pes then begin
      t.m.Metrics.health_retx_storms <- t.m.Metrics.health_retx_storms + 1;
      obs t
        (Dgr_obs.Event.Health
           { health = Dgr_obs.Event.Retransmit_storm; value = delta })
    end;
    t.wd_retx_last <- t.m.Metrics.retransmits;
    t.wd_retx_at <- now + 64
  end

(* ---- PE crashes (fail-stop with checkpointed re-homing) ---------------
   A crash loses a PE's volatile state wholesale: its task pool, every
   frame in flight on its links (both directions, including batched
   frames), and whatever its striped graph segment drifted to since the
   last checkpoint. Because the crash tick syncs every PE's checkpoint at
   the top of the very step the crash dice roll, the restored segment is
   exact — no acknowledged state ever rolls back — and re-homing the
   crashed PE's live vertices onto survivors preserves the reachable
   graph byte-for-byte. What is honestly lost is in-flight and pooled
   work ([crash_lost_tasks]); an interrupted marking phase is restarted
   ({!Cycle.restart_phase}) so no partial mark can masquerade as a
   finished wave. All of it runs serially at the top of the step, before
   the shards (which only read [down_since]), so verdicts and digests
   stay bit-identical at every [domains] value. *)

let is_down t pe = t.down_since.(pe) >= 0

let up_count t =
  let n = ref 0 in
  for pe = 0 to t.num_pes - 1 do
    if not (is_down t pe) then incr n
  done;
  !n

let sync_ckpts t =
  if Array.length t.ckpts = 0 then
    t.ckpts <- Array.init t.num_pes (fun pe -> Checkpoint.create t.g ~pe);
  Array.iter (fun ck -> ignore (Checkpoint.sync ck ~now:t.now)) t.ckpts

(* The crash itself. Caller guarantees [pe] is up, at least one other PE
   is up, and [t.ckpts.(pe)] was synced this step. *)
let crash_now t ~pe ~down =
  let lost_pool = Pool.purge t.pools.(pe) (fun _ -> true) in
  let lost_net = Network.crash_pe t.net ~pe in
  Checkpoint.restore t.ckpts.(pe);
  t.down_since.(pe) <- t.now;
  t.down_until.(pe) <- t.now + down;
  (* Re-home every live vertex stranded on a down PE (the whole-graph
     scan also catches vertices still pointing at an earlier crash's PE,
     e.g. two crashes in one step) onto the up PEs, round-robin by vid —
     deterministic, and balanced regardless of which PE died. *)
  let survivors = Array.make (up_count t) 0 in
  let k = ref 0 in
  for p = 0 to t.num_pes - 1 do
    if not (is_down t p) then begin
      survivors.(!k) <- p;
      incr k
    end
  done;
  let ns = Array.length survivors in
  let rehomed = ref 0 in
  Graph.iter_live
    (fun vx ->
      let home = (Vertex.pe vx) in
      if home >= 0 && home < t.num_pes && is_down t home then begin
        Vertex.set_pe vx @@ survivors.((((Vertex.id vx) mod ns) + ns) mod ns);
        incr rehomed
      end)
    t.g;
  (* A marking wave the crash interrupted can never complete (marks bound
     for the dead PE are gone) and must not be trusted (its partial marks
     include state the restore rewound). Restart the phase on a fresh
     wave — no machine-wide purge: the dead wave's surviving tasks carry
     the old epoch and die at dispatch ([stale_marks_dropped]), its
     credits die at the detector, and the settled plane's verdict from
     the previous phase is untouched. *)
  (match t.cyc with
  | Some c when Cycle.phase c <> Cycle.Idle -> Cycle.restart_phase c
  | _ -> ());
  t.m.Metrics.crashes <- t.m.Metrics.crashes + 1;
  t.m.Metrics.crash_lost_tasks <- t.m.Metrics.crash_lost_tasks + lost_pool + lost_net;
  t.m.Metrics.crash_rehomed <- t.m.Metrics.crash_rehomed + !rehomed;
  obs t (Dgr_obs.Event.Pe_crash { pe; lost = lost_pool + lost_net; down })

(* The per-step crash tick: sync checkpoints, recover PEs whose downtime
   elapsed (they execute again this very step, empty-handed), then roll
   the crash dice in ascending PE order. A crash that would leave no
   survivor is suppressed — the fail-stop model assumes a majority of
   the machine outlives any fault (see {!Faults}). *)
let crash_tick t =
  sync_ckpts t;
  for pe = 0 to t.num_pes - 1 do
    if is_down t pe && t.now >= t.down_until.(pe) then begin
      let downtime = t.now - t.down_since.(pe) in
      t.down_since.(pe) <- -1;
      t.m.Metrics.recoveries <- t.m.Metrics.recoveries + 1;
      Dgr_obs.Hist.add t.m.Metrics.lat_recovery downtime;
      obs t (Dgr_obs.Event.Pe_recover { pe; down = downtime })
    end
  done;
  match t.flt with
  | Some f when f.Faults.spec.Faults.crash > 0.0 ->
    for pe = 0 to t.num_pes - 1 do
      if (not (is_down t pe)) && Faults.crash_begins f && up_count t >= 2 then begin
        let down = Faults.down_length f in
        crash_now t ~pe ~down
      end
    done
  | _ -> ()

(* The stall pre-pass, serial at the top of every step that runs the
   reduction budgets, before the shards: each up PE in ascending order
   either sits out a stall in progress or rolls the stall dice, so the
   draw order — and with it the stall schedule — is a pure function of
   machine state. A stalled PE (crash-restart with memory preserved)
   skips its budgets ([runs]); its pool, heap and in-flight messages
   survive. The marking plane must tolerate this — a stalled PE delays
   but never loses its share of the cycle. A crashed PE rolls nothing
   until it recovers. *)
let stall_tick t f =
  for pe = 0 to t.num_pes - 1 do
    if not (is_down t pe) then
      if t.now < t.stall_until.(pe) then f.Faults.stall_steps <- f.Faults.stall_steps + 1
      else if Faults.stall_begins f then begin
        let steps = Faults.stall_length f in
        f.Faults.stalls <- f.Faults.stalls + 1;
        f.Faults.stall_steps <- f.Faults.stall_steps + 1;
        t.stall_until.(pe) <- t.now + steps;
        obs t (Dgr_obs.Event.Stall { pe; steps })
      end
  done

let inject_crash t ~pe ~down =
  if t.num_pes < 2 then invalid_arg "Engine.inject_crash: need at least 2 PEs";
  if pe < 0 || pe >= t.num_pes then invalid_arg "Engine.inject_crash: no such PE";
  if is_down t pe then invalid_arg "Engine.inject_crash: PE already down";
  if up_count t < 2 then invalid_arg "Engine.inject_crash: would leave no survivor";
  if down < 1 then invalid_arg "Engine.inject_crash: downtime must be >= 1";
  t.crash_used <- true;
  sync_ckpts t;
  crash_now t ~pe ~down

let pe_down t pe = pe >= 0 && pe < t.num_pes && is_down t pe

let step t =
  let p0 = Profile.now () in
  let w0 = Profile.words () in
  (match t.recorder with Some r -> Dgr_obs.Recorder.set_now r t.now | None -> ());
  (* Every vertex allocated from here on is this step's: the ownership
     checker exempts same-step births (a PE wires up its own fresh
     template vertices before they are published to anyone). *)
  Graph.bump_epoch t.g;
  (* A step runs the shards unless the machine is paused by a
     collection; during a restructure pause with the next cycle's wave
     already open, they run its marks only. *)
  let running = t.now >= t.paused_until in
  let executing =
    running || match t.cyc with Some c -> Cycle.phase c <> Cycle.Idle | None -> false
  in
  (* 0. The fault plane's serial pass. The crash tick (checkpoint sync,
     recoveries, crash dice) runs before delivery, so frames arriving at
     a PE that crashes this step die with it; then the stall dice. A
     machine that cannot crash or stall never enters either, keeping
     fault-free runs byte-identical to builds without the plane. *)
  if t.crash_used then crash_tick t;
  (match t.flt with Some f when running -> stall_tick t f | _ -> ());
  (* Refcount frees made between steps (the barrier purges its own). *)
  flush_rc_purge t;
  (* 1. Deliver the network (the delivered task's lineage ticket rides
     along as its pool stamp). On an executing step each task lands in
     its destination PE's inbox and the PE's shard pushes it into the
     pool: a push touches only the destination pool and reads vertex
     classes nothing writes during execution, so the per-task pool work
     runs sharded. Otherwise it goes straight into the pool. Either way
     a pool sees the same pushes in the same order. *)
  Network.deliver_into t.net ~now:t.now
    ~push:
      (if executing then (fun pe stamp task ->
         let ctx = t.ctxs.(pe) in
         Vec.push ctx.inbox task;
         Vec.push ctx.inbox_stamps stamp)
       else fun pe stamp task -> Pool.push_stamped t.pools.(pe) ~stamp task);
  let p1 = Profile.now () in
  let w1 = Profile.words () in
  t.prof.Profile.Sums.transport_ns <- t.prof.Profile.Sums.transport_ns +. (p1 -. p0);
  t.prof.Profile.Sums.transport_mw <- t.prof.Profile.Sums.transport_mw +. (w1 -. w0);
  (* 2. Execute. Marking tasks are lightweight (§6: "bounded amount of
     time once the required vertices are accessed") and get their own
     per-step budget so GC neither starves nor is starved by the
     reduction process. Every PE runs against its private context; with
     one shard that is a plain loop on this domain, with more the same
     loop bodies run on the worker pool — same buffers either way.
     Cooperation bodies and refcount traffic are deferred to the
     barrier. Epoch overlap: while the machine is paused for cycle N's
     restructure, cycle N+1's mark wave may already be open — its tasks
     carry the new epoch and touch nothing the pause protects, so the
     marking budgets keep draining while reduction stays stopped. *)
  if executing then begin
    t.mark_only <- not running;
    t.in_step <- true;
    Mutator.set_defer t.mut (Some t.coop_sink);
    if t.domains > 1 then run_parallel t (fun d -> run_shard t d) else run_shard t 0;
    let p2 = Profile.now () in
    let w2 = Profile.words () in
    t.prof.Profile.Sums.execute_ns <- t.prof.Profile.Sums.execute_ns +. (p2 -. p1);
    t.prof.Profile.Sums.execute_mw <- t.prof.Profile.Sums.execute_mw +. (w2 -. w1);
    barrier t;
    t.mark_only <- false;
    t.prof.Profile.Sums.merge_ns <- t.prof.Profile.Sums.merge_ns +. (Profile.now () -. p2);
    t.prof.Profile.Sums.merge_mw <- t.prof.Profile.Sums.merge_mw +. (Profile.words () -. w2)
  end;
  (* 3. Memory management. *)
  let p3 = Profile.now () in
  let w3 = Profile.words () in
  gc_control t;
  (* Flood termination heartbeats: while a flood phase is in progress
     every up PE periodically posts its (epoch, sent, executed) credit
     as a standalone loss-free control message, so the detector hears
     from PEs the data traffic never visits. Deterministic: driven by
     [t.now] and machine state only. *)
  (match active_flood t with
  | Some fl ->
    let ht = Int.max 1 (t.latency / 4) in
    if t.now mod ht = 0 then
      for pe = 0 to t.num_pes - 1 do
        if t.down_since.(pe) < 0 then begin
          let sent, executed = Flood.credit fl ~pe in
          Network.post_credit t.net ~arrival:(t.now + ht) ~pe ~epoch:fl.Flood.wave ~sent
            ~executed
        end
      done
  | None -> ());
  let p4 = Profile.now () in
  let w4 = Profile.words () in
  t.prof.Profile.Sums.gc_ns <- t.prof.Profile.Sums.gc_ns +. (p4 -. p3);
  t.prof.Profile.Sums.gc_mw <- t.prof.Profile.Sums.gc_mw +. (w4 -. w3);
  (* 4. Bookkeeping. *)
  (match (Reducer.finished t.red, t.m.Metrics.completion_step) with
  | true, None ->
    t.m.Metrics.completion_step <- Some t.now;
    obs t Dgr_obs.Event.Finished
  | _ -> ());
  let depth = ref 0 in
  for pe = 0 to t.num_pes - 1 do
    depth := !depth + Pool.length t.pools.(pe)
  done;
  Dgr_util.Stats.add t.m.Metrics.pool_depth (float_of_int !depth);
  t.m.Metrics.peak_live <- Int.max t.m.Metrics.peak_live (Graph.live_count t.g);
  (match t.flt with
  | None -> ()
  | Some f ->
    t.m.Metrics.msgs_dropped <- f.Faults.drops;
    t.m.Metrics.msgs_duplicated <- f.Faults.dups;
    t.m.Metrics.msgs_delayed <- f.Faults.delays;
    t.m.Metrics.retransmits <- f.Faults.retransmits;
    t.m.Metrics.dup_suppressed <- f.Faults.dup_suppressed;
    t.m.Metrics.stalls <- f.Faults.stalls;
    t.m.Metrics.stall_steps <- f.Faults.stall_steps);
  t.m.Metrics.frames_sent <- Network.frames_sent t.net;
  t.m.Metrics.acks_sent <- Network.acks_sent t.net;
  t.m.Metrics.acks_piggybacked <- Network.acks_piggybacked t.net;
  t.m.Metrics.tasks_sent <- Network.tasks_sent t.net;
  t.m.Metrics.marks_coalesced <- Network.marks_coalesced t.net;
  health_check t;
  (match t.recorder with
  | None -> ()
  | Some r ->
    Dgr_obs.Recorder.tick r ~live:(Graph.live_count t.g) ~in_flight:(Network.size t.net)
      ~headroom:(match Graph.capacity t.g with None -> -1 | Some _ -> Graph.headroom t.g)
      ~pool_depth:(Array.map Pool.length t.pools));
  t.now <- t.now + 1;
  t.m.Metrics.steps <- t.m.Metrics.steps + 1;
  let p5 = Profile.now () in
  let w5 = Profile.words () in
  t.prof.Profile.Sums.book_ns <- t.prof.Profile.Sums.book_ns +. (p5 -. p4);
  t.prof.Profile.Sums.book_mw <- t.prof.Profile.Sums.book_mw +. (w5 -. w4);
  t.prof.Profile.Sums.total_ns <- t.prof.Profile.Sums.total_ns +. (p5 -. p0);
  t.prof.Profile.Sums.total_mw <- t.prof.Profile.Sums.total_mw +. (w5 -. w0);
  t.prof_steps <- t.prof_steps + 1

let result t = t.red.Reducer.result

let finished t = Reducer.finished t.red

let run ?(max_steps = 1_000_000) ?stop t =
  let start = t.now in
  (* Under the concurrent collector the mark/restructure cycle "is
     repeated endlessly" (§4) — a task-quiescent machine is not done (a
     deadlocked computation stays quiescent forever, and detecting that is
     the point), so only the stop condition or the step budget end the
     run. The default stop condition is program completion; an explicit
     [stop] replaces it (e.g. to keep collecting after the result). *)
  let stop = match stop with Some f -> f | None -> finished in
  let gc_cycles_forever = match t.gc_mode with Concurrent _ -> true | _ -> false in
  let continue = ref true in
  while !continue do
    if stop t || t.now - start >= max_steps then continue := false
    else if (not gc_cycles_forever) && quiescent t && t.now >= t.paused_until then
      continue := false
    else step t
  done;
  t.now - start

let network_entries t = Network.entries t.net
