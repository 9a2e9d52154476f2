(* Property-based tests (qcheck): data-structure models, marking vs the
   oracle on random graphs, and a reference interpreter cross-check of
   the whole distributed engine on randomly generated programs. *)
open Dgr_graph
open Dgr_util
open Dgr_lang

let qtest = QCheck_alcotest.to_alcotest

(* --- data-structure models ------------------------------------------ *)

let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue pops in (priority, insertion) order" ~count:200
    QCheck.(list (pair (int_bound 10) small_int))
    (fun entries ->
      let q = Pqueue.create () in
      List.iter (fun (p, x) -> Pqueue.add q p x) entries;
      let popped = List.init (List.length entries) (fun _ -> Option.get (Pqueue.pop q)) in
      (* model: stable sort by priority *)
      let model = List.stable_sort (fun (p1, _) (p2, _) -> compare p1 p2) entries in
      popped = model)

let prop_pqueue_filter =
  QCheck.Test.make ~name:"pqueue filter keeps order among survivors" ~count:200
    QCheck.(list (pair (int_bound 5) small_int))
    (fun entries ->
      let q = Pqueue.create () in
      List.iter (fun (p, x) -> Pqueue.add q p x) entries;
      Pqueue.filter_in_place (fun _ x -> x mod 2 = 0) q;
      let popped = List.init (Pqueue.length q) (fun _ -> Option.get (Pqueue.pop q)) in
      let model =
        List.stable_sort (fun (p1, _) (p2, _) -> compare p1 p2)
          (List.filter (fun (_, x) -> x mod 2 = 0) entries)
      in
      popped = model)

(* The slot-slab heap against the parallel-array heap it replaced
   (test/pqueue_oracle.ml): random interleavings of every mutating
   operation must produce the same pops, the same [iter] order (heap
   array order, which taskroot seeding depends on) and the same
   predicate/priority callback order. Values are boxed strings. *)
module type HEAP = sig
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int
  val add_tagged : 'a t -> int -> tag:int -> 'a -> unit
  val pop_tagged : 'a t -> (int * int * 'a) option
  val pop_tagged_with : 'a t -> ('a -> int -> unit) -> bool
  val min_prio : 'a t -> default:int -> int
  val filter_tagged_in_place : (int -> int -> 'a -> bool) -> 'a t -> unit
  val map_priorities : (int -> 'a -> int) -> 'a t -> unit
  val clear : 'a t -> unit
  val iter : (int -> 'a -> unit) -> 'a t -> unit
end

let heap_trace (module H : HEAP) ops =
  let q = H.create () in
  let out = Buffer.create 256 in
  let emit p g v = Buffer.add_string out (Printf.sprintf "%d/%d/%s;" p g v) in
  let next = ref 0 in
  let add p g =
    incr next;
    H.add_tagged q p ~tag:g (string_of_int !next)
  in
  List.iter
    (fun (op, a, b) ->
      (match op with
      | 0 | 1 | 2 | 3 -> add a b
      | 4 ->
        let p = H.min_prio q ~default:(-1) in
        ignore (H.pop_tagged_with q (fun v g -> emit p g v))
      | 5 -> (
        match H.pop_tagged q with Some (p, g, v) -> emit p g v | None -> emit (-1) 0 "")
      | 6 ->
        (* pop, and re-enter the heap from inside the callback *)
        let p = H.min_prio q ~default:(-1) in
        ignore
          (H.pop_tagged_with q (fun v g ->
               emit p g v;
               add (p + b) g))
      | 7 ->
        H.filter_tagged_in_place
          (fun p g v ->
            emit p g v;
            (p + g + b) mod 3 <> 0)
          q
      | 8 ->
        H.map_priorities
          (fun p v ->
            emit p 0 v;
            ((p * a) + b) mod 8)
          q
      | _ -> if b < 2 then H.clear q else H.iter (fun p v -> emit p 0 v) q);
      Buffer.add_string out (Printf.sprintf "|%d|" (H.length q)))
    ops;
  while H.pop_tagged_with q (fun v g -> emit 0 g v) do
    ()
  done;
  Buffer.contents out

let prop_pqueue_oracle =
  QCheck.Test.make ~name:"slot-slab pqueue = parallel-array oracle" ~count:300
    QCheck.(list_of_size Gen.(0 -- 400) (triple (int_bound 9) (int_bound 7) (int_bound 20)))
    (fun ops ->
      heap_trace (module Pqueue) ops = heap_trace (module Pqueue_oracle) ops)

let prop_vec_model =
  QCheck.Test.make ~name:"vec behaves like a list" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && (match (Vec.pop v, List.rev xs) with
         | None, [] -> true
         | Some x, y :: _ -> x = y
         | _ -> false)
      ||
      (* popped version still matches the prefix *)
      Vec.to_list v = List.filteri (fun i _ -> i < List.length xs - 1) xs)

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle preserves the multiset" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* --- marking vs the oracle on random static graphs ------------------- *)

let graph_spec_gen =
  QCheck.Gen.(
    map3
      (fun live garbage seed ->
        ( { Builder.live = 5 + live; garbage; free_pool = 5;
            avg_degree = 1.0 +. (float_of_int (seed land 7) /. 3.0);
            cycle_bias = float_of_int (seed land 3) /. 4.0 },
          seed ))
      (int_bound 80) (int_bound 40) (int_bound 10_000))

let arbitrary_spec = QCheck.make graph_spec_gen

let prop_basic_marking_equals_reachability =
  QCheck.Test.make ~name:"mark1 marks exactly R (any order)" ~count:60 arbitrary_spec
    (fun (spec, seed) ->
      let g = Builder.random (Rng.create seed) spec in
      let order =
        match seed mod 3 with
        | 0 -> Dgr_core.Sync_engine.Fifo
        | 1 -> Dgr_core.Sync_engine.Lifo
        | _ -> Dgr_core.Sync_engine.Random (Rng.create (seed + 1))
      in
      let (_ : Dgr_core.Run.t) =
        Dgr_core.Sync_engine.mark ~order g Dgr_core.Run.Basic ~seeds:[ Graph.root g ]
      in
      let marked = Helpers.marked_set g Plane.MR in
      let expected =
        Dgr_analysis.Reach.reachable_from (Snapshot.take g) [ Graph.root g ]
      in
      Vid.Set.equal marked expected)

let prop_priority_marking_equals_oracle =
  QCheck.Test.make ~name:"mark2 priorities equal oracle max-min" ~count:60 arbitrary_spec
    (fun (spec, seed) ->
      let g = Builder.random_with_requests (Rng.create seed) spec in
      let (_ : Dgr_core.Run.t) =
        Dgr_core.Sync_engine.mark g Dgr_core.Run.Priority ~seeds:[ Graph.root g ]
      in
      let reach = Dgr_analysis.Reach.compute (Snapshot.take g) ~tasks:[] in
      Vid.Set.equal (Helpers.marked_with_prior g 3) reach.Dgr_analysis.Reach.r_v
      && Vid.Set.equal (Helpers.marked_with_prior g 2) reach.Dgr_analysis.Reach.r_e
      && Vid.Set.equal (Helpers.marked_with_prior g 1) reach.Dgr_analysis.Reach.r_r)

let prop_mt_marking_equals_oracle =
  QCheck.Test.make ~name:"mark3 marks exactly T" ~count:60 arbitrary_spec
    (fun (spec, seed) ->
      let g = Builder.random_with_requests (Rng.create seed) spec in
      let rng = Rng.create (seed * 3) in
      (* synthesize tasks over random requested entries *)
      let tasks =
        Graph.fold_live
          (fun acc v ->
            List.fold_left
              (fun acc (e : Vertex.request_entry) ->
                if Rng.int rng 2 = 0 then
                  Dgr_task.Task.Request
                    { src = e.Vertex.who; dst = (Vertex.id v); demand = e.Vertex.demand;
                      key = e.Vertex.key }
                  :: acc
                else acc)
              acc (Vertex.requested v))
          [] g
      in
      let seeds =
        List.concat_map Dgr_task.Task.reduction_endpoints tasks |> List.sort_uniq compare
      in
      let (_ : Dgr_core.Run.t) = Dgr_core.Sync_engine.mark g Dgr_core.Run.Tasks ~seeds in
      let marked = Helpers.marked_set g Plane.MT in
      let expected = Dgr_analysis.Reach.task_reachable_from (Snapshot.take g) tasks in
      Vid.Set.equal marked expected)

(* --- reference interpreter cross-check ------------------------------- *)

(* Random closed, total programs: arithmetic, booleans, lets, calls to a
   tiny library of total functions, conditionals, small lists. *)
module Gen_prog = struct
  open Ast

  let lib =
    {|
def dbl x = x + x;
def max2 a b = if a < b then b else a;
def addsat a b = let s = a + b in if s > 99 then 99 else s;
def len xs = if isnil(xs) then 0 else 1 + len(tail(xs));
def suml xs = if isnil(xs) then 0 else head(xs) + suml(tail(xs));
|}

  let rec gen_int env rng depth =
    if depth = 0 then
      match (env, Rng.int rng 3) with
      | x :: _, 0 -> Var x
      | _ -> Int (Rng.int rng 20 - 10)
    else
      match Rng.int rng 9 with
      | 0 -> Int (Rng.int rng 20 - 10)
      | 1 -> Prim (Label.Add, [ gen_int env rng (depth - 1); gen_int env rng (depth - 1) ])
      | 2 -> Prim (Label.Sub, [ gen_int env rng (depth - 1); gen_int env rng (depth - 1) ])
      | 3 -> Prim (Label.Mul, [ gen_int env rng (depth - 1); Int (Rng.int rng 5) ])
      | 4 -> If (gen_bool env rng (depth - 1), gen_int env rng (depth - 1),
                 gen_int env rng (depth - 1))
      | 5 ->
        let x = Printf.sprintf "x%d" (List.length env) in
        Let (x, gen_int env rng (depth - 1), gen_int (x :: env) rng (depth - 1))
      | 6 -> Call ("dbl", [ gen_int env rng (depth - 1) ])
      | 7 -> Call ("max2", [ gen_int env rng (depth - 1); gen_int env rng (depth - 1) ])
      | _ -> Call ("suml", [ gen_list env rng (Rng.int rng 4) ])

  and gen_bool env rng depth =
    if depth = 0 then Bool (Rng.bool rng)
    else
      match Rng.int rng 4 with
      | 0 -> Bool (Rng.bool rng)
      | 1 -> Prim (Label.Lt, [ gen_int env rng (depth - 1); gen_int env rng (depth - 1) ])
      | 2 -> Prim (Label.Not, [ gen_bool env rng (depth - 1) ])
      | _ -> Prim (Label.Eq, [ gen_int env rng (depth - 1); gen_int env rng (depth - 1) ])

  and gen_list env rng n =
    if n = 0 then Nil else Cons (gen_int env rng 1, gen_list env rng (n - 1))

  (* Reference interpreter. *)
  type value = I of int | B of bool | L of value list

  let rec eval env (defs : (string * (string list * expr)) list) e =
    let int e = match eval env defs e with I n -> n | _ -> failwith "int expected" in
    let bool e = match eval env defs e with B b -> b | _ -> failwith "bool expected" in
    match e with
    | Int n -> I n
    | Bool b -> B b
    | Nil -> L []
    | Bottom -> failwith "bottom"
    | Var x -> List.assoc x env
    | Let (x, e1, e2) -> eval ((x, eval env defs e1) :: env) defs e2
    | If (p, t, f) -> if bool p then eval env defs t else eval env defs f
    | Cons (h, t) -> (
      match eval env defs t with
      | L vs -> L (eval env defs h :: vs)
      | _ -> failwith "list expected")
    | Prim (p, args) -> (
      match (p, args) with
      | Label.Add, [ a; b ] -> I (int a + int b)
      | Label.Sub, [ a; b ] -> I (int a - int b)
      | Label.Mul, [ a; b ] -> I (int a * int b)
      | Label.Lt, [ a; b ] -> B (int a < int b)
      | Label.Leq, [ a; b ] -> B (int a <= int b)
      | Label.Eq, [ a; b ] -> (
        match (eval env defs a, eval env defs b) with
        | I x, I y -> B (x = y)
        | B x, B y -> B (x = y)
        | _ -> failwith "eq")
      | Label.Not, [ a ] -> B (not (bool a))
      | Label.Neg, [ a ] -> I (-int a)
      | Label.Is_nil, [ a ] -> (
        match eval env defs a with L vs -> B (vs = []) | _ -> failwith "isnil")
      | Label.Head, [ a ] -> (
        match eval env defs a with L (v :: _) -> v | _ -> failwith "head")
      | Label.Tail, [ a ] -> (
        match eval env defs a with L (_ :: vs) -> L vs | _ -> failwith "tail")
      | _ -> failwith "unsupported prim")
    | Call (f, args) ->
      let params, body = List.assoc f defs in
      let vals = List.map (eval env defs) args in
      eval (List.combine params vals) defs body

  let defs_of_program p = List.map (fun d -> (d.Ast.name, (d.Ast.params, d.Ast.body))) p
end

let prop_engine_matches_interpreter =
  QCheck.Test.make ~name:"distributed engine = reference interpreter" ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound 3))
    (fun (seed, gc_choice) ->
      let rng = Rng.create seed in
      let expr = Gen_prog.gen_int [] rng 4 in
      let lib = Parser.parse_program Gen_prog.lib in
      let program = lib @ [ { Ast.name = "main"; params = []; body = expr } ] in
      let expected =
        match Gen_prog.eval [] (Gen_prog.defs_of_program program) expr with
        | Gen_prog.I n -> n
        | _ -> QCheck.assume_fail ()
      in
      let gc =
        match gc_choice with
        | 0 -> Dgr_sim.Engine.No_gc
        | 1 -> Dgr_sim.Engine.Concurrent { deadlock_every = 2; idle_gap = 10 }
        | 2 -> Dgr_sim.Engine.Stop_the_world { every = 100 }
        | _ -> Dgr_sim.Engine.Refcount
      in
      let config =
        Dgr_sim.Engine.Config.make
          ~num_pes:(1 + (seed mod 7))
          ~gc
          ~speculate_if:(seed land 1 = 0)
          ()
      in
      let g, templates =
        Compile.load ~num_pes:(Dgr_sim.Engine.Config.num_pes config) program
      in
      let e = Dgr_sim.Engine.create ~config g templates in
      Dgr_sim.Engine.inject_root_demand e;
      let (_ : int) = Dgr_sim.Engine.run ~max_steps:400_000 e in
      match Dgr_sim.Engine.result e with
      | Some (Label.V_int n) -> n = expected
      | _ -> false)

let prop_random_graphs_validate =
  QCheck.Test.make ~name:"random builders always produce valid graphs" ~count:100
    arbitrary_spec
    (fun (spec, seed) ->
      Validate.check (Builder.random (Rng.create seed) spec) = []
      && Validate.check (Builder.random_with_requests (Rng.create seed) spec) = [])

let suite =
  [
    qtest prop_pqueue_model;
    qtest prop_pqueue_filter;
    qtest prop_pqueue_oracle;
    qtest prop_vec_model;
    qtest prop_rng_shuffle_permutes;
    qtest prop_basic_marking_equals_reachability;
    qtest prop_priority_marking_equals_oracle;
    qtest prop_mt_marking_equals_oracle;
    qtest prop_engine_matches_interpreter;
    qtest prop_random_graphs_validate;
  ]
