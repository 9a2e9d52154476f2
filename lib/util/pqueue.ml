(* Binary heap over int columns plus a slot slab for the payload.

   The heap arrays hold only ints — priority, FIFO rank and the entry's
   [slot] — so sifting moves ints and runs no write barrier. Values and
   tags live in a slab indexed by slot, written once per [add] and never
   moved; freed slots go on a stack and are reused LIFO. A heap of boxed
   values that swapped the values themselves paid [caml_modify] (and,
   while the major GC marks, [caml_darken]) on every swap; the slab pays
   one [caml_modify] per insertion.

   Comparison is ascending priority, FIFO (insertion rank) among ties.
   Ranks are unique, so the order is total and the heap's shape — hence
   [iter]'s heap-array order — is a pure function of the operation
   sequence. *)

type 'a t = {
  mutable prio : int array;  (* heap order *)
  mutable rank : int array;  (* heap order *)
  mutable slot : int array;  (* heap order: where the entry's payload lives *)
  mutable vals : 'a array;  (* slab *)
  mutable tags : int array;  (* slab *)
  mutable free : int array;  (* stack of freed slab slots *)
  mutable nfree : int;
  mutable fresh : int;  (* slab slots [fresh, capacity) never handed out since the last clear *)
  mutable len : int;
  mutable next_rank : int;
}

let create () =
  {
    prio = [||];
    rank = [||];
    slot = [||];
    vals = [||];
    tags = [||];
    free = [||];
    nfree = 0;
    fresh = 0;
    len = 0;
    next_rank = 0;
  }

let length q = q.len

let is_empty q = q.len = 0

let extend a cap' fill =
  let a' = Array.make cap' fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Live slots never exceed [len], so at [len = capacity] every slab slot
   below [fresh] is taken and the slab grows with the heap. [x] seeds
   the new value array's filler, keeping the representation correct for
   any 'a (including float). *)
let grow q x =
  let cap = Array.length q.prio in
  let cap' = if cap = 0 then 8 else cap * 2 in
  q.prio <- extend q.prio cap' 0;
  q.rank <- extend q.rank cap' 0;
  q.slot <- extend q.slot cap' 0;
  q.vals <- extend q.vals cap' x;
  q.tags <- extend q.tags cap' (-1);
  q.free <- extend q.free cap' 0

let[@inline] lt (p : int) (r : int) p' r' = p < p' || (p = p' && r < r')

(* Move the entry [(p, r, s)] up from the hole at [i]. *)
let sift_up q i p r s =
  let prio = q.prio and rank = q.rank and slot = q.slot in
  let i = ref i and continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prio parent and rp = Array.unsafe_get rank parent in
    if lt p r pp rp then begin
      Array.unsafe_set prio !i pp;
      Array.unsafe_set rank !i rp;
      Array.unsafe_set slot !i (Array.unsafe_get slot parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set rank !i r;
  Array.unsafe_set slot !i s

(* Move the entry [(p, r, s)] down from the hole at [i] within the first
   [q.len] positions. *)
let sift_down q i p r s =
  let prio = q.prio and rank = q.rank and slot = q.slot in
  let n = q.len in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c =
        if
          l + 1 < n
          && lt (Array.unsafe_get prio (l + 1)) (Array.unsafe_get rank (l + 1))
               (Array.unsafe_get prio l) (Array.unsafe_get rank l)
        then l + 1
        else l
      in
      let pc = Array.unsafe_get prio c and rc = Array.unsafe_get rank c in
      if lt pc rc p r then begin
        Array.unsafe_set prio !i pc;
        Array.unsafe_set rank !i rc;
        Array.unsafe_set slot !i (Array.unsafe_get slot c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set rank !i r;
  Array.unsafe_set slot !i s

let add_tagged q prio ~tag value =
  if q.len = Array.length q.prio then grow q value;
  let s =
    if q.nfree > 0 then begin
      q.nfree <- q.nfree - 1;
      Array.unsafe_get q.free q.nfree
    end
    else begin
      let s = q.fresh in
      q.fresh <- s + 1;
      s
    end
  in
  q.vals.(s) <- value;
  Array.unsafe_set q.tags s tag;
  let r = q.next_rank in
  q.next_rank <- r + 1;
  let i = q.len in
  q.len <- i + 1;
  sift_up q i prio r s

let add q prio value = add_tagged q prio ~tag:(-1) value

let release q s =
  Array.unsafe_set q.free q.nfree s;
  q.nfree <- q.nfree + 1

(* Remove the root, refill the hole with the last entry, and return the
   root's slot (released, but its payload is intact until the next add). *)
let remove_min q =
  let s = q.slot.(0) in
  let n = q.len - 1 in
  q.len <- n;
  if n > 0 then
    sift_down q 0 (Array.unsafe_get q.prio n) (Array.unsafe_get q.rank n)
      (Array.unsafe_get q.slot n);
  release q s;
  s

let pop_tagged q =
  if q.len = 0 then None
  else begin
    let p = q.prio.(0) in
    let s = remove_min q in
    Some (p, q.tags.(s), q.vals.(s))
  end

let pop q =
  match pop_tagged q with None -> None | Some (p, _, v) -> Some (p, v)

(* Callback form of [pop_tagged] for per-pop hot loops: no option or
   tuple is built. The heap invariant is restored (and the payload read
   out of its released slot) before [f] runs, so [f] may re-enter
   [add_tagged]. *)
let pop_tagged_with q f =
  if q.len = 0 then false
  else begin
    let s = remove_min q in
    f (Array.unsafe_get q.vals s) (Array.unsafe_get q.tags s);
    true
  end

let peek q = if q.len = 0 then None else Some (q.prio.(0), q.vals.(q.slot.(0)))

(* Unboxed peek at the minimum priority for hot drain loops that only
   need to compare it against a threshold before committing to a pop. *)
let min_prio q ~default = if q.len = 0 then default else q.prio.(0)

let clear q =
  q.len <- 0;
  q.nfree <- 0;
  q.fresh <- 0

let iter f q =
  for i = 0 to q.len - 1 do
    f q.prio.(i) q.vals.(q.slot.(i))
  done

let to_sorted_list q =
  let idx = Array.init q.len (fun i -> i) in
  Array.sort
    (fun a b ->
      match Int.compare q.prio.(a) q.prio.(b) with
      | 0 -> Int.compare q.rank.(a) q.rank.(b)
      | c -> c)
    idx;
  Array.fold_right (fun i acc -> (q.prio.(i), q.vals.(q.slot.(i))) :: acc) idx []

let heapify q =
  for i = (q.len / 2) - 1 downto 0 do
    sift_down q i q.prio.(i) q.rank.(i) q.slot.(i)
  done

let filter_tagged_in_place p q =
  let j = ref 0 in
  for i = 0 to q.len - 1 do
    let s = q.slot.(i) in
    if p q.prio.(i) q.tags.(s) q.vals.(s) then begin
      if !j <> i then begin
        q.prio.(!j) <- q.prio.(i);
        q.rank.(!j) <- q.rank.(i);
        q.slot.(!j) <- s
      end;
      incr j
    end
    else release q s
  done;
  q.len <- !j;
  heapify q

let filter_in_place p q = filter_tagged_in_place (fun prio _ v -> p prio v) q

let map_priorities f q =
  for i = 0 to q.len - 1 do
    q.prio.(i) <- f q.prio.(i) q.vals.(q.slot.(i))
  done;
  heapify q
