type entry = { id : Node_id.t; mark : Mark.t }

(* Levels in distance order, each level a sorted int array of packed
   entries [(id lsl 2) lor severity] (Clear 0, Single 1, Double 2), ids
   unique within the level (across-level uniqueness is only guaranteed for
   values built by [merge]/[ant], see [well_formed]).  Packed order is
   (id, severity) order, so a level sorted by packed value is sorted by id
   and [compare] is one integer comparison per entry; the unboxed arrays
   carry no per-entry block, and a merge meeting one id twice keeps the
   larger packed value without allocating.  Arrays are never mutated
   after construction, so suffixes and untouched levels are shared freely
   between values ([merge]/[truncate]/[strip_marked] reuse input arrays
   whenever a pass changes nothing — which is the common case once the
   protocol has stabilized, and what makes [Grp_node]'s steady-state
   equality checks O(1) physical comparisons). *)
type t = int array array

let severity = function Mark.Clear -> 0 | Mark.Single -> 1 | Mark.Double -> 2
let pack id mark = (id lsl 2) lor severity mark
let id_of e = e asr 2
let mark_of e = match e land 3 with 0 -> Mark.Clear | 1 -> Mark.Single | _ -> Mark.Double
let is_clear e = e land 3 = 0
let empty = [||]
let singleton id = [| [| pack id Mark.Clear |] |]
let singleton_marked id mark = [| [| pack id mark |] |]

(* Per-domain scratch for the filters and the merge: a level is built in
   it and copied out at its exact size, so a pass allocates only the
   levels it returns.  Values are shared between domains but every pass
   runs on one, so a buffer per domain is never contended. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref [||])

let scratch n =
  let r = Domain.DLS.get scratch_key in
  if Array.length !r < n then r := Array.make n 0;
  !r

(* Sort a raw level and merge duplicate ids (most severe mark wins: for
   one id the larger packed value). *)
let normalize_level es =
  let a = Array.of_list es in
  Array.sort Int.compare a;
  let n = Array.length a in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if !k > 0 && id_of a.(!k - 1) = id_of a.(i) then a.(!k - 1) <- a.(i)
    else begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  if !k = n then a else Array.sub a 0 !k

let of_levels lvls =
  Array.of_list
    (List.map (fun l -> normalize_level (List.map (fun (id, mark) -> pack id mark) l)) lvls)

let decode e = { id = id_of e; mark = mark_of e }
let levels t = Array.to_list (Array.map (fun l -> Array.to_list (Array.map decode l)) t)
let size t = Array.length t
let is_empty t = Array.length t = 0

let rec has_clear (l : int array) j =
  j < Array.length l && (is_clear l.(j) || has_clear l (j + 1))

let clear_size t =
  let best = ref 0 in
  for i = 0 to Array.length t - 1 do
    if has_clear t.(i) 0 then best := i + 1
  done;
  !best

let level t i =
  if i < 0 || i >= Array.length t then [] else Array.to_list (Array.map decode t.(i))

let level_ids t i =
  if i < 0 || i >= Array.length t then Node_id.Set.empty
  else Array.fold_left (fun acc e -> Node_id.Set.add (id_of e) acc) Node_id.Set.empty t.(i)

(* The queries below are top-level recursions over the sorted levels
   rather than closures over the list and the id, so that [mem], [find]
   and [well_formed] allocate nothing (beyond [find]'s result). *)

(* Index of [id] in the sorted level [l] within [lo, hi), or -1. *)
let rec search (l : int array) id lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) lsr 1 in
    let c = Int.compare (id_of l.(mid)) id in
    if c = 0 then mid else if c < 0 then search l id (mid + 1) hi else search l id lo mid
  end

(* [id] occurs in none of the levels [0, i) of [lvls]. *)
let rec absent_above (lvls : t) id i =
  i = 0
  || begin
       let l = lvls.(i - 1) in
       search l id 0 (Array.length l) < 0 && absent_above lvls id (i - 1)
     end

(* Levels are scanned in distance order, so the first hit is the closest
   occurrence. *)
let rec find_from t id pos =
  if pos >= Array.length t then None
  else begin
    let l = t.(pos) in
    let j = search l id 0 (Array.length l) in
    if j >= 0 then Some (pos, mark_of l.(j)) else find_from t id (pos + 1)
  end

let find t id = find_from t id 0

(* Shared results, so that [mark_at] allocates nothing. *)
let some_clear = Some Mark.Clear
let some_single = Some Mark.Single
let some_double = Some Mark.Double

let mark_at t pos id =
  if pos < 0 || pos >= Array.length t then None
  else begin
    let l = t.(pos) in
    let j = search l id 0 (Array.length l) in
    if j < 0 then None
    else match l.(j) land 3 with 0 -> some_clear | 1 -> some_single | _ -> some_double
  end

let mem t id = not (absent_above t id (Array.length t))

let rec undoubled_from t id pos =
  if pos >= Array.length t then -1
  else begin
    let l = t.(pos) in
    let j = search l id 0 (Array.length l) in
    if j >= 0 && l.(j) land 3 <> 2 then pos else undoubled_from t id (pos + 1)
  end

let closest_undoubled t id = undoubled_from t id 0

let rec fold_level_entries f (l : int array) pos j acc =
  if j >= Array.length l then acc
  else begin
    let e = l.(j) in
    fold_level_entries f l pos (j + 1) (f acc (id_of e) pos (mark_of e))
  end

let rec fold_levels f t pos acc =
  if pos >= Array.length t then acc
  else fold_levels f t (pos + 1) (fold_level_entries f t.(pos) pos 0 acc)

let fold_entries t ~init ~f = fold_levels f t 0 init

let rec exists_level f (l : int array) pos j =
  j < Array.length l
  && begin
       let e = l.(j) in
       f (id_of e) pos (mark_of e) || exists_level f l pos (j + 1)
     end

let rec exists_from f t pos =
  pos < Array.length t && (exists_level f t.(pos) pos 0 || exists_from f t (pos + 1))

let exists t ~f = exists_from f t 0

let rec fold_one_level f (l : int array) j acc =
  if j >= Array.length l then acc
  else begin
    let e = l.(j) in
    fold_one_level f l (j + 1) (f acc (id_of e) (mark_of e))
  end

let fold_level t i ~init ~f =
  if i < 0 || i >= Array.length t then init else fold_one_level f t.(i) 0 init

let level_size t i = if i < 0 || i >= Array.length t then 0 else Array.length t.(i)

let ids t = fold_entries t ~init:Node_id.Set.empty ~f:(fun acc id _ _ -> Node_id.Set.add id acc)

let clear_ids t =
  fold_entries t ~init:Node_id.Set.empty ~f:(fun acc id _ mark ->
      if mark = Mark.Clear then Node_id.Set.add id acc else acc)

let entries t =
  List.rev (fold_entries t ~init:[] ~f:(fun acc id pos mark -> (id, pos, mark) :: acc))

(* The first [k] entries of the scratch buffer [buf] as a level: the input
   [l] itself when nothing was dropped. *)
let cut buf (l : int array) k =
  if k = Array.length l then l else if k = 0 then [||] else Array.sub buf 0 k

(* Keep the Clear entries of [l], and those of id [keep] ([min_int]:
   none — packed ids lie in [-2^60, 2^60)). *)
let filter_clear ~keep (l : int array) =
  let n = Array.length l in
  let buf = scratch n in
  let k = ref 0 in
  for j = 0 to n - 1 do
    let e = l.(j) in
    if is_clear e || id_of e = keep then begin
      buf.(!k) <- e;
      incr k
    end
  done;
  cut buf l !k

let strip_marked ~keep t =
  let lvls' = Array.map (filter_clear ~keep) t in
  let n = ref (Array.length lvls') in
  while !n > 0 && Array.length lvls'.(!n - 1) = 0 do
    decr n
  done;
  let unchanged = ref (!n = Array.length t) in
  if !unchanged then Array.iteri (fun i l -> if l != t.(i) then unchanged := false) lvls';
  if !unchanged then t else Array.sub lvls' 0 !n

let has_empty_level t = Array.exists (fun l -> Array.length l = 0) t

(* Append [e] to the scratch level of [k] entries when it is a first
   occurrence; the new entry count. *)
let push_absent buf lvls emitted k e =
  if absent_above lvls (id_of e) emitted then begin
    buf.(k) <- e;
    k + 1
  end
  else k

(* The first occurrences in [l] — ids absent from the [emitted] levels
   of [lvls] already built. *)
let filter_absent buf lvls emitted (l : int array) =
  let k = ref 0 in
  for j = 0 to Array.length l - 1 do
    k := push_absent buf lvls emitted !k l.(j)
  done;
  cut buf l !k

(* Positionwise union of two non-empty levels fused with the
   first-occurrence filter in one two-pointer pass.  One id in both keeps
   the more severe mark: the larger packed value. *)
let union_absent buf lvls emitted (a : int array) (b : int array) =
  let ka = Array.length a and kb = Array.length b in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  while !i < ka && !j < kb do
    let ea = a.(!i) and eb = b.(!j) in
    let c = Int.compare (id_of ea) (id_of eb) in
    if c < 0 then begin
      k := push_absent buf lvls emitted !k ea;
      incr i
    end
    else if c > 0 then begin
      k := push_absent buf lvls emitted !k eb;
      incr j
    end
    else begin
      k := push_absent buf lvls emitted !k (if ea >= eb then ea else eb);
      incr i;
      incr j
    end
  done;
  while !i < ka do
    k := push_absent buf lvls emitted !k a.(!i);
    incr i
  done;
  while !j < kb do
    k := push_absent buf lvls emitted !k b.(!j);
    incr j
  done;
  Array.sub buf 0 !k

(* The [⊕] operator: union the levels positionwise, then keep only the
   first occurrence of every id, walking levels in distance order.  A level
   emptied by the deduplication means every node that supported it is in
   fact closer, so the distance claims of the deeper levels are unreliable:
   the list is truncated at the gap (they re-derive from better-placed
   information on later computes).  Compacting the gap instead would
   understate distances and leak nodes across rejected boundaries
   (DESIGN.md Section 5).

   [off] shifts [b]'s levels [off] positions deeper without materializing
   the shift: [merge_off 1 a b] is [a ⊕ r(b)], the [ant] fold step, minus
   one array copy per application.

   An id is a first occurrence when no level already emitted holds it:
   those levels are sorted, and ids are unique within the level being
   built, so a binary search per emitted level decides it without any
   side table. *)
let merge_off off a b =
  let na = Array.length a and nb = Array.length b in
  let n = max na (if nb = 0 then 0 else nb + off) in
  let lvls = Array.make n [||] in
  let widest = ref 0 in
  for i = 0 to na - 1 do
    widest := max !widest (Array.length a.(i))
  done;
  for i = 0 to nb - 1 do
    widest := max !widest (Array.length b.(i))
  done;
  let buf = scratch (2 * !widest) in
  let emitted = ref 0 and gap = ref false in
  while (not !gap) && !emitted < n do
    let i = !emitted in
    let bi = i - off in
    let l' =
      if i >= na then
        if bi >= 0 && bi < nb then filter_absent buf lvls i b.(bi) else [||]
      else if bi < 0 || bi >= nb then filter_absent buf lvls i a.(i)
      else if Array.length a.(i) = 0 then filter_absent buf lvls i b.(bi)
      else if Array.length b.(bi) = 0 then filter_absent buf lvls i a.(i)
      else union_absent buf lvls i a.(i) b.(bi)
    in
    if Array.length l' = 0 then gap := true
    else begin
      lvls.(i) <- l';
      incr emitted
    end
  done;
  if !emitted = n then lvls else Array.sub lvls 0 !emitted

let merge a b = merge_off 0 a b
let shift t = if Array.length t = 0 then t else Array.append [| [||] |] t
let ant l1 l2 = merge_off 1 l1 l2

(* The left fold of [ant] in one table.  Folding pairwise copies the
   growing accumulator once per list and binary-searches every emitted
   level per entry.  Here an open-addressing table maps each id to its
   current position and severity, packed [(pos lsl 2) lor severity] like
   an entry, and [counts] holds the live entries per position.  An entry
   of a list's level [j] lands at [j + 1]: it moves an id found deeper,
   ties one found there (most severe mark) and is skipped otherwise —
   exactly the first-occurrence rule of [merge_off].  After each list the
   first empty position truncates, as [merge_off] would: the entries
   beyond it are marked [dead] (the table never deletes, so probe chains
   stay intact) and revive like new ids if a later list names them.  The
   levels are materialized once, by [ant_fold_finish].  Per domain, like
   [scratch]: one fold at a time, and the table only ever grows. *)
type ant_fold = {
  mutable keys : int array;  (* id, or [vacant] *)
  mutable vals : int array;  (* packed position and severity, or [dead] *)
  mutable order : int array;  (* occupied slots, in insertion order *)
  mutable used : int;
  mutable counts : int array;
  mutable size : int;  (* positions of the accumulator *)
  mutable seed : t;
  mutable folded : bool;  (* a list was folded in *)
}

let vacant = min_int
let dead = -1

let fold_key =
  Domain.DLS.new_key (fun () ->
      {
        keys = Array.make 64 vacant;
        vals = Array.make 64 dead;
        order = Array.make 32 0;
        used = 0;
        counts = Array.make 8 0;
        size = 0;
        seed = empty;
        folded = false;
      })

(* Fibonacci hashing: the product's bits from 32 up mix every bit of the
   id, so ids that share their low bits do not collide. *)
let slot_of (f : ant_fold) id =
  ((id * 0x1E3779B97F4A7C15) lsr 32) land (Array.length f.keys - 1)

let rec probe (keys : int array) id s =
  let k = keys.(s) in
  if k = id || k = vacant then s else probe keys id ((s + 1) land (Array.length keys - 1))

let grow_counts (f : ant_fold) n =
  if Array.length f.counts < n then begin
    let c = Array.make (Int.max n (2 * Array.length f.counts)) 0 in
    Array.blit f.counts 0 c 0 (Array.length f.counts);
    f.counts <- c
  end

(* Double the table at half load, re-placing the occupied slots in
   insertion order. *)
let grow_table (f : ant_fold) =
  let keys = f.keys and vals = f.vals and order = f.order in
  let cap = 2 * Array.length keys in
  f.keys <- Array.make cap vacant;
  f.vals <- Array.make cap dead;
  f.order <- Array.make (cap / 2) 0;
  for i = 0 to f.used - 1 do
    let s = order.(i) in
    let s' = probe f.keys keys.(s) (slot_of f keys.(s)) in
    f.keys.(s') <- keys.(s);
    f.vals.(s') <- vals.(s);
    f.order.(i) <- s'
  done

(* The entry [e] at position [pos]: the first-occurrence rule. *)
let place (f : ant_fold) pos e =
  let id = id_of e in
  let s = probe f.keys id (slot_of f id) in
  let v = f.vals.(s) in
  let pe = (pos lsl 2) lor (e land 3) in
  if f.keys.(s) = vacant || v = dead then begin
    if f.keys.(s) = vacant then begin
      f.keys.(s) <- id;
      f.order.(f.used) <- s;
      f.used <- f.used + 1
    end;
    f.vals.(s) <- pe;
    f.counts.(pos) <- f.counts.(pos) + 1;
    if 2 * f.used >= Array.length f.keys then grow_table f
  end
  else begin
    let at = v lsr 2 in
    if pos < at then begin
      f.counts.(at) <- f.counts.(at) - 1;
      f.counts.(pos) <- f.counts.(pos) + 1;
      f.vals.(s) <- pe
    end
    else if pos = at && pe > v then f.vals.(s) <- pe
  end

let place_level f pos (l : int array) =
  for j = 0 to Array.length l - 1 do
    place f pos l.(j)
  done

let ant_fold_start seed =
  let f = Domain.DLS.get fold_key in
  for i = 0 to f.used - 1 do
    f.keys.(f.order.(i)) <- vacant
  done;
  f.used <- 0;
  Array.fill f.counts 0 f.size 0;
  grow_counts f (Array.length seed);
  for pos = 0 to Array.length seed - 1 do
    place_level f pos seed.(pos)
  done;
  f.size <- Array.length seed;
  f.seed <- seed;
  f.folded <- false;
  f

(* Positions [from, size) emptied: drop every entry at or beyond
   [from]. *)
let cut_at (f : ant_fold) from =
  for i = 0 to f.used - 1 do
    let s = f.order.(i) in
    if f.vals.(s) lsr 2 >= from then f.vals.(s) <- dead
  done;
  Array.fill f.counts from (f.size - from) 0;
  f.size <- from

let rec first_empty (counts : int array) i n =
  if i >= n || counts.(i) = 0 then i else first_empty counts (i + 1) n

let ant_fold_add (f : ant_fold) l =
  let m = Array.length l in
  if m + 1 > f.size then begin
    grow_counts f (m + 1);
    f.size <- m + 1
  end;
  for j = 0 to m - 1 do
    place_level f (j + 1) l.(j)
  done;
  let gap = first_empty f.counts 0 f.size in
  if gap < f.size then cut_at f gap;
  f.folded <- true

(* Sort [a.(lo) .. a.(hi - 1)] in place: insertion sort on short runs,
   median-of-three quicksort above. *)
let rec sort_range (a : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) lsr 1 in
    let x = a.(lo) and y = a.(mid) and z = a.(hi - 1) in
    let pivot = Int.max (Int.min x y) (Int.min (Int.max x y) z) in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    sort_range a lo (!j + 1);
    sort_range a !i hi
  end

let ant_fold_finish (f : ant_fold) =
  let seed = f.seed in
  f.seed <- empty;
  if not f.folded then seed
  else begin
    let n = f.size in
    let lvls = Array.make n [||] in
    for pos = 0 to n - 1 do
      lvls.(pos) <- Array.make f.counts.(pos) 0
    done;
    (* The counts become fill cursors, walked down from the newest slot,
       so each level receives its entries in insertion order: sorted runs,
       one per list. *)
    for i = f.used - 1 downto 0 do
      let s = f.order.(i) in
      let v = f.vals.(s) in
      if v <> dead then begin
        let pos = v lsr 2 in
        let c = f.counts.(pos) - 1 in
        f.counts.(pos) <- c;
        lvls.(pos).(c) <- (f.keys.(s) lsl 2) lor (v land 3)
      end
    done;
    for pos = 0 to n - 1 do
      sort_range lvls.(pos) 0 (Array.length lvls.(pos))
    done;
    lvls
  end

let truncate t k =
  let n = Array.length t in
  if k = 0 then empty else if k < 0 || k >= n then t else Array.sub t 0 k

(* Drop all marked entries AND compact every level that ends up (or was)
   empty, in one pass. *)
let restrict_clear t =
  let out = ref [] in
  let kept_levels = ref 0 in
  let changed = ref false in
  Array.iter
    (fun l ->
      let l' = filter_clear ~keep:min_int l in
      if l' != l then changed := true;
      if Array.length l' = 0 then changed := true
      else begin
        out := l' :: !out;
        incr kept_levels
      end)
    t;
  if not !changed then t
  else begin
    let arr = Array.make !kept_levels [||] in
    List.iteri (fun i l -> arr.(!kept_levels - 1 - i) <- l) !out;
    arr
  end

(* Entries [j..] of level [pos] are first occurrences, and Clear beyond
   position 1. *)
let rec level_well_formed t pos (l : int array) j =
  j >= Array.length l
  || begin
       let e = l.(j) in
       (pos <= 1 || is_clear e)
       && absent_above t (id_of e) pos
       && level_well_formed t pos l (j + 1)
     end

let rec levels_well_formed t pos =
  pos >= Array.length t
  || (Array.length t.(pos) > 0
     && level_well_formed t pos t.(pos) 0
     && levels_well_formed t (pos + 1))

(* Ids are unique within a level by construction, so checking each entry
   against the levels above it covers uniqueness across the whole list. *)
let well_formed t = levels_well_formed t 0

(* Levels lexicographically, entries within a level lexicographically by
   (id, mark) — one integer comparison of the packed values — and a
   missing level/entry sorting first. *)
let rec compare_entries (l1 : int array) (l2 : int array) j =
  let m1 = Array.length l1 and m2 = Array.length l2 in
  if j >= m1 && j >= m2 then 0
  else if j >= m1 then -1
  else if j >= m2 then 1
  else
    let c = Int.compare l1.(j) l2.(j) in
    if c <> 0 then c else compare_entries l1 l2 (j + 1)

let rec compare_levels (a : t) (b : t) i =
  let na = Array.length a and nb = Array.length b in
  if i >= na && i >= nb then 0
  else if i >= na then -1
  else if i >= nb then 1
  else
    let c = if a.(i) == b.(i) then 0 else compare_entries a.(i) b.(i) 0 in
    if c <> 0 then c else compare_levels a b (i + 1)

let compare a b = if a == b then 0 else compare_levels a b 0
let equal a b = compare a b = 0

let pp ppf t =
  let pp_entry ppf e = Format.fprintf ppf "%a%a" Node_id.pp e.id Mark.pp e.mark in
  let pp_level ppf l =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp_entry)
      l
  in
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp_level)
    (levels t)

let to_string t = Format.asprintf "%a" pp t
