type entry = { id : Node_id.t; mark : Mark.t }

(* Levels in distance order, each level a sorted-by-id array with unique ids
   within the level (across-level uniqueness is only guaranteed for values
   built by [merge]/[ant], see [well_formed]).  Arrays are never mutated
   after construction, so suffixes and untouched levels are shared freely
   between values ([merge]/[truncate]/[strip_marked] reuse input arrays
   whenever a pass changes nothing — which is the common case once the
   protocol has stabilized, and what makes the steady-state equality checks
   in [Grp_node]'s fold cache O(1) physical comparisons). *)
type t = entry array array

let empty = [||]
let singleton id = [| [| { id; mark = Mark.Clear } |] |]
let singleton_marked id mark = [| [| { id; mark } |] |]

(* Sort a raw level by id and merge duplicate ids (most severe mark wins). *)
let normalize_level es =
  let a = Array.of_list es in
  Array.sort (fun x y -> Node_id.compare x.id y.id) a;
  let n = Array.length a in
  let rec dups i = i < n - 1 && (Node_id.equal a.(i).id a.(i + 1).id || dups (i + 1)) in
  if not (dups 0) then a
  else begin
    let out = Array.make n a.(0) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if !k > 0 && Node_id.equal out.(!k - 1).id a.(i).id then
        out.(!k - 1) <- { id = a.(i).id; mark = Mark.max out.(!k - 1).mark a.(i).mark }
      else begin
        out.(!k) <- a.(i);
        incr k
      end
    done;
    Array.sub out 0 !k
  end

let of_levels lvls =
  Array.of_list
    (List.map
       (fun l -> normalize_level (List.map (fun (id, mark) -> { id; mark }) l))
       lvls)

let levels t = Array.to_list (Array.map Array.to_list t)
let size t = Array.length t
let is_empty t = Array.length t = 0

let clear_size t =
  let best = ref 0 in
  Array.iteri
    (fun i l -> if Array.exists (fun e -> e.mark = Mark.Clear) l then best := i + 1)
    t;
  !best

let level t i = if i < 0 || i >= Array.length t then [] else Array.to_list t.(i)

let level_ids t i =
  if i < 0 || i >= Array.length t then Node_id.Set.empty
  else Array.fold_left (fun acc e -> Node_id.Set.add e.id acc) Node_id.Set.empty t.(i)

(* The membership queries below are top-level recursions over the sorted
   levels rather than closures over the list and the id, so that [mem] and
   [well_formed] allocate nothing. *)

(* Index of [id] in the sorted level [l] within [lo, hi), or -1. *)
let rec search (l : entry array) id lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) lsr 1 in
    let c = Node_id.compare l.(mid).id id in
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
    if j >= 0 then Some (pos, l.(j).mark) else find_from t id (pos + 1)
  end

let find t id = find_from t id 0
let mem t id = not (absent_above t id (Array.length t))

let rec fold_level_entries f (l : entry array) pos j acc =
  if j >= Array.length l then acc
  else begin
    let e = l.(j) in
    fold_level_entries f l pos (j + 1) (f acc e.id pos e.mark)
  end

let rec fold_levels f t pos acc =
  if pos >= Array.length t then acc
  else fold_levels f t (pos + 1) (fold_level_entries f t.(pos) pos 0 acc)

let fold_entries t ~init ~f = fold_levels f t 0 init

let rec exists_level f (l : entry array) pos j =
  j < Array.length l
  && begin
       let e = l.(j) in
       f e.id pos e.mark || exists_level f l pos (j + 1)
     end

let rec exists_from f t pos =
  pos < Array.length t && (exists_level f t.(pos) pos 0 || exists_from f t (pos + 1))

let exists t ~f = exists_from f t 0

let fold_level t i ~init ~f =
  if i < 0 || i >= Array.length t then init
  else Array.fold_left (fun acc e -> f acc e.id e.mark) init t.(i)

let level_size t i = if i < 0 || i >= Array.length t then 0 else Array.length t.(i)

let ids t = fold_entries t ~init:Node_id.Set.empty ~f:(fun acc id _ _ -> Node_id.Set.add id acc)

let clear_ids t =
  fold_entries t ~init:Node_id.Set.empty ~f:(fun acc id _ mark ->
      if mark = Mark.Clear then Node_id.Set.add id acc else acc)

let entries t =
  List.rev (fold_entries t ~init:[] ~f:(fun acc id pos mark -> (id, pos, mark) :: acc))

(* Filter a level in one pass, sharing the input array when nothing is
   dropped.  The keep-set fits an int bitmask for every level the protocol
   actually produces (inline up to 62 entries); the boxed bool array only
   appears on the synthetic giant levels of the scalability workloads. *)
let filter_level p l =
  let n = Array.length l in
  if n = 0 then l
  else if n <= 62 then begin
    let mask = ref 0 in
    let kept = ref 0 in
    for j = 0 to n - 1 do
      if p l.(j) then begin
        mask := !mask lor (1 lsl j);
        incr kept
      end
    done;
    if !kept = n then l
    else if !kept = 0 then [||]
    else begin
      let out = Array.make !kept l.(0) in
      let k = ref 0 in
      for j = 0 to n - 1 do
        if !mask land (1 lsl j) <> 0 then begin
          out.(!k) <- l.(j);
          incr k
        end
      done;
      out
    end
  end
  else begin
    let kept = ref 0 in
    let keep = Array.make n false in
    for j = 0 to n - 1 do
      if p l.(j) then begin
        keep.(j) <- true;
        incr kept
      end
    done;
    if !kept = n then l
    else if !kept = 0 then [||]
    else begin
      let out = Array.make !kept l.(0) in
      let k = ref 0 in
      for j = 0 to n - 1 do
        if keep.(j) then begin
          out.(!k) <- l.(j);
          incr k
        end
      done;
      out
    end
  end

let strip_marked ~keep t =
  let lvls' =
    Array.map (filter_level (fun e -> e.mark = Mark.Clear || Node_id.equal e.id keep)) t
  in
  let n = ref (Array.length lvls') in
  while !n > 0 && Array.length lvls'.(!n - 1) = 0 do
    decr n
  done;
  let unchanged = ref (!n = Array.length t) in
  if !unchanged then Array.iteri (fun i l -> if l != t.(i) then unchanged := false) lvls';
  if !unchanged then t else Array.sub lvls' 0 !n

let has_empty_level t = Array.exists (fun l -> Array.length l = 0) t

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
  let emitted = ref 0 in
  let pred e = absent_above lvls e.id !emitted in
  (* Overlapping levels fuse the positionwise union with the
     first-occurrence filter in the one two-pointer pass: the separate
     union array the historical code built was immediately consumed by the
     filter and thrown away, one allocation per level per merge on the ant
     fold's hottest path. *)
  let union_filter a b =
    let ka = Array.length a and kb = Array.length b in
    let out = Array.make (ka + kb) a.(0) in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let push e =
      if pred e then begin
        out.(!k) <- e;
        incr k
      end
    in
    while !i < ka && !j < kb do
      let ea = a.(!i) and eb = b.(!j) in
      let c = Node_id.compare ea.id eb.id in
      if c < 0 then begin
        push ea;
        incr i
      end
      else if c > 0 then begin
        push eb;
        incr j
      end
      else begin
        push { id = ea.id; mark = Mark.max ea.mark eb.mark };
        incr i;
        incr j
      end
    done;
    while !i < ka do
      push a.(!i);
      incr i
    done;
    while !j < kb do
      push b.(!j);
      incr j
    done;
    if !k = ka + kb then out else Array.sub out 0 !k
  in
  (try
     for i = 0 to n - 1 do
       let bi = i - off in
       let l' =
         if i >= na then
           if bi >= 0 && bi < nb then filter_level pred b.(bi) else [||]
         else if bi < 0 || bi >= nb then filter_level pred a.(i)
         else if Array.length a.(i) = 0 then filter_level pred b.(bi)
         else if Array.length b.(bi) = 0 then filter_level pred a.(i)
         else union_filter a.(i) b.(bi)
       in
       if Array.length l' = 0 then raise Exit;
       lvls.(i) <- l';
       incr emitted
     done
   with Exit -> ());
  if !emitted = n then lvls else Array.sub lvls 0 !emitted

let merge a b = merge_off 0 a b
let shift t = if Array.length t = 0 then t else Array.append [| [||] |] t
let ant l1 l2 = merge_off 1 l1 l2

let truncate t k =
  let n = Array.length t in
  if k = 0 then empty else if k < 0 || k >= n then t else Array.sub t 0 k

(* Drop all marked entries AND compact every level that ends up (or was)
   empty, in one fused pass — the historical implementation filtered each
   level and then traversed again to compact, allocating a closure per
   call. *)
let restrict_clear t =
  let out = ref [] in
  let kept_levels = ref 0 in
  let changed = ref false in
  Array.iter
    (fun l ->
      let l' = filter_level (fun e -> e.mark = Mark.Clear) l in
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
let rec level_well_formed t pos (l : entry array) j =
  j >= Array.length l
  || begin
       let e = l.(j) in
       (pos <= 1 || e.mark = Mark.Clear)
       && absent_above t e.id pos
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

(* Same order as [Stdlib.compare] over the historical
   list-of-levels-of-(id, mark) key: levels lexicographically, entries
   within a level lexicographically, a missing level/entry sorting first. *)
let compare a b =
  if a == b then 0
  else begin
    let na = Array.length a and nb = Array.length b in
    let rec go_level i =
      if i >= na && i >= nb then 0
      else if i >= na then -1
      else if i >= nb then 1
      else begin
        let l1 = a.(i) and l2 = b.(i) in
        let m1 = Array.length l1 and m2 = Array.length l2 in
        let rec go_entry j =
          if j >= m1 && j >= m2 then go_level (i + 1)
          else if j >= m1 then -1
          else if j >= m2 then 1
          else begin
            let e1 = l1.(j) and e2 = l2.(j) in
            let c = Stdlib.compare (e1.id, e1.mark) (e2.id, e2.mark) in
            if c <> 0 then c else go_entry (j + 1)
          end
        in
        go_entry 0
      end
    in
    go_level 0
  end

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
