(* Unit tests for the ordered-lists-of-ancestor-sets structure and the
   ant r-operator (paper Section 4.2). *)

open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let al = Alcotest.testable Antlist.pp Antlist.equal

let of_clear levels =
  Antlist.of_levels (List.map (List.map (fun id -> (id, Mark.Clear))) levels)

let test_singleton () =
  let l = Antlist.singleton 5 in
  check_int "size" 1 (Antlist.size l);
  check "mem" true (Antlist.mem l 5);
  check "find pos" true (Antlist.find l 5 = Some (0, Mark.Clear))

let test_singleton_marked () =
  let l = Antlist.singleton_marked 7 Mark.Double in
  check "marked entry" true (Antlist.find l 7 = Some (0, Mark.Double));
  check_int "clear size of all-marked" 0 (Antlist.clear_size l)

let test_paper_example () =
  (* ({d},{b},{a,c}) ⊕ ({c},{a,e},{b}) = ({d,c},{b,a,e}) with
     d=0 b=1 a=2 c=3 e=4. *)
  let l1 = of_clear [ [ 0 ]; [ 1 ]; [ 2; 3 ] ] in
  let l2 = of_clear [ [ 3 ]; [ 2; 4 ]; [ 1 ] ] in
  let merged = Antlist.merge l1 l2 in
  Alcotest.check al "paper merge example" (of_clear [ [ 0; 3 ]; [ 1; 2; 4 ] ]) merged

let test_shift () =
  let l = of_clear [ [ 1 ]; [ 2 ] ] in
  let s = Antlist.shift l in
  check_int "size grows" 3 (Antlist.size s);
  check "entry shifted" true (Antlist.find s 1 = Some (1, Mark.Clear));
  check "empty shift" true (Antlist.is_empty (Antlist.shift Antlist.empty))

let test_ant_basic () =
  (* ant((v), (u)) = ({v},{u}) — the neighbor lands at distance 1. *)
  let r = Antlist.ant (Antlist.singleton 0) (Antlist.singleton 1) in
  Alcotest.check al "neighbor at 1" (of_clear [ [ 0 ]; [ 1 ] ]) r

let test_ant_dedupe_keeps_closest () =
  (* u appears at distance 1 directly and at distance 2 via the other
     list: the closest occurrence wins. *)
  let own = of_clear [ [ 0 ]; [ 1 ] ] in
  let from_2 = of_clear [ [ 2 ]; [ 1 ] ] in
  let r = Antlist.ant own from_2 in
  check "1 stays at distance 1" true (Antlist.find r 1 = Some (1, Mark.Clear));
  check "2 at distance 1" true (Antlist.find r 2 = Some (1, Mark.Clear))

let test_ant_self_dedupe () =
  (* The receiver's echo in the incoming list is shadowed by its own
     position-0 entry. *)
  let incoming = of_clear [ [ 1 ]; [ 0; 2 ] ] in
  let r = Antlist.ant (Antlist.singleton 0) incoming in
  check "self at 0" true (Antlist.find r 0 = Some (0, Mark.Clear));
  check "no duplicate" true (Antlist.well_formed r);
  check "2 at distance 2" true (Antlist.find r 2 = Some (2, Mark.Clear))

let test_gap_truncation () =
  (* If deduplication empties an interior level, everything deeper is
     dropped instead of slid closer (DESIGN.md Section 5). *)
  let acc = of_clear [ [ 0 ]; [ 1 ] ] in
  (* sender 2's list: 2 at 0, 1 at 1 (will dedupe to nothing at level 2),
     9 at 2 (claims distance 3 via a support that vanished). *)
  let incoming = of_clear [ [ 2 ]; [ 1 ]; [ 9 ] ] in
  let r = Antlist.ant acc incoming in
  check "9 dropped at the gap" false (Antlist.mem r 9);
  check_int "truncated size" 2 (Antlist.size r)

let test_merge_mark_severity () =
  let a = Antlist.of_levels [ [ (1, Mark.Single) ] ] in
  let b = Antlist.of_levels [ [ (1, Mark.Double) ] ] in
  let m = Antlist.merge a b in
  check "severest mark wins in-level" true (Antlist.find m 1 = Some (0, Mark.Double))

let test_clear_size_ignores_marked_tail () =
  let l = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Single); (2, Mark.Double) ] ] in
  check_int "raw size" 2 (Antlist.size l);
  check_int "clear size" 1 (Antlist.clear_size l);
  let l2 = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Single); (2, Mark.Clear) ] ] in
  check_int "clear entry counts" 2 (Antlist.clear_size l2)

let test_strip_marked () =
  let l =
    Antlist.of_levels
      [ [ (0, Mark.Clear) ]; [ (1, Mark.Single); (2, Mark.Clear); (3, Mark.Double) ] ]
  in
  let s = Antlist.strip_marked ~keep:3 l in
  check "clear kept" true (Antlist.mem s 2);
  check "other marked dropped" false (Antlist.mem s 1);
  check "keep exception" true (Antlist.find s 3 = Some (1, Mark.Double));
  (* Stripping a trailing all-marked level trims it. *)
  let l2 = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Single) ] ] in
  check_int "trailing trim" 1 (Antlist.size (Antlist.strip_marked ~keep:0 l2))

let test_strip_keeps_interior_empty () =
  (* An interior level emptied by stripping stays, so goodList can reject
     the malformed shape. *)
  let l =
    Antlist.of_levels
      [ [ (0, Mark.Clear) ]; [ (1, Mark.Double) ]; [ (2, Mark.Clear) ] ]
  in
  let s = Antlist.strip_marked ~keep:9 l in
  check "has empty level" true (Antlist.has_empty_level s);
  check_int "size kept" 3 (Antlist.size s)

let test_truncate () =
  let l = of_clear [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] in
  let t = Antlist.truncate l 2 in
  check_int "truncated" 2 (Antlist.size t);
  check "far node gone" false (Antlist.mem t 3);
  check_int "truncate beyond size" 4 (Antlist.size (Antlist.truncate l 10))

let test_ids_and_entries () =
  let l = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Single); (2, Mark.Clear) ] ] in
  Alcotest.(check (list int)) "ids" [ 0; 1; 2 ] (Node_id.Set.elements (Antlist.ids l));
  Alcotest.(check (list int)) "clear ids" [ 0; 2 ]
    (Node_id.Set.elements (Antlist.clear_ids l));
  check_int "entries" 3 (List.length (Antlist.entries l));
  Alcotest.(check (list int)) "level ids" [ 1; 2 ]
    (Node_id.Set.elements (Antlist.level_ids l 1));
  check "out of range level" true (Antlist.level l 7 = []);
  check "mark at" true (Antlist.mark_at l 1 1 = Some Mark.Single);
  check "mark at, other level" true (Antlist.mark_at l 0 1 = None);
  check "mark at, out of range" true (Antlist.mark_at l 7 1 = None)

let test_well_formed () =
  check "good" true (Antlist.well_formed (of_clear [ [ 0 ]; [ 1; 2 ] ]));
  check "duplicate id" false (Antlist.well_formed (of_clear [ [ 0 ]; [ 0 ] ]));
  check "empty level" false
    (Antlist.well_formed (Antlist.of_levels [ [ (0, Mark.Clear) ]; []; [ (2, Mark.Clear) ] ]));
  check "deep mark" false
    (Antlist.well_formed
       (Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Clear) ]; [ (2, Mark.Single) ] ]))

let test_restrict_clear () =
  let l =
    Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Double) ]; [ (2, Mark.Clear) ] ]
  in
  let r = Antlist.restrict_clear l in
  check "marked gone" false (Antlist.mem r 1);
  check "clear kept" true (Antlist.mem r 0 && Antlist.mem r 2)

let test_compare_equal () =
  let a = of_clear [ [ 0 ]; [ 1 ] ] in
  let b = of_clear [ [ 0 ]; [ 1 ] ] in
  check "equal" true (Antlist.equal a b);
  check_int "compare zero" 0 (Antlist.compare a b);
  let c = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Single) ] ] in
  check "marks distinguish" false (Antlist.equal a c);
  let d = Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Double) ] ] in
  check "single vs double distinguish" false (Antlist.equal c d)

(* --- r-operator laws, with qcheck --- *)

(* Random unmarked lists with unique ids per list (the representation
   invariant of computed lists): the algebraic laws are about the distance
   structure; marks are exercised by the unit tests above. *)
let gen_antlist =
  QCheck.Gen.(
    let* n_levels = int_range 1 4 in
    let* sizes = list_repeat n_levels (int_range 1 3) in
    let total = List.fold_left ( + ) 0 sizes in
    let* ids = shuffle_l (List.init 16 (fun i -> i)) in
    let rec take k l = if k = 0 then ([], l) else
      match l with [] -> ([], []) | x :: r -> let (a, b) = take (k - 1) r in (x :: a, b)
    in
    let picked, _ = take total ids in
    let rec split sizes pool = match sizes with
      | [] -> []
      | k :: rest -> let (lvl, pool') = take k pool in
          List.map (fun id -> (id, Mark.Clear)) lvl :: split rest pool'
    in
    return (Antlist.of_levels (split sizes picked)))

let arb_antlist = QCheck.make ~print:Antlist.to_string gen_antlist

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge idempotent: l ⊕ l has l's ids at l's positions or closer"
    ~count:200 arb_antlist (fun l ->
      let m = Antlist.merge l l in
      Node_id.Set.subset (Antlist.ids m) (Antlist.ids l))

let prop_ant_absorbs_self =
  QCheck.Test.make ~name:"idempotency: merge l (merge l r) = merge l r" ~count:200
    (QCheck.pair arb_antlist arb_antlist) (fun (l, r) ->
      let lr = Antlist.merge l r in
      Antlist.equal (Antlist.merge l lr) lr)

let prop_merge_ids_bounded =
  QCheck.Test.make ~name:"merge ids ⊆ union of ids" ~count:200
    (QCheck.pair arb_antlist arb_antlist) (fun (a, b) ->
      Node_id.Set.subset
        (Antlist.ids (Antlist.merge a b))
        (Node_id.Set.union (Antlist.ids a) (Antlist.ids b)))

let prop_merge_no_duplicates =
  QCheck.Test.make ~name:"merge output has unique ids" ~count:200
    (QCheck.pair arb_antlist arb_antlist) (fun (a, b) ->
      let m = Antlist.merge a b in
      let all = Antlist.entries m in
      List.length all
      = Node_id.Set.cardinal
          (Node_id.Set.of_list (List.map (fun (id, _, _) -> id) all)))

let prop_merge_positions_min =
  QCheck.Test.make ~name:"merge keeps positions no farther than either input" ~count:200
    (QCheck.pair arb_antlist arb_antlist) (fun (a, b) ->
      let m = Antlist.merge a b in
      List.for_all
        (fun (id, pos, _) ->
          let best =
            match (Antlist.find a id, Antlist.find b id) with
            | Some (pa, _), Some (pb, _) -> min pa pb
            | Some (pa, _), None -> pa
            | None, Some (pb, _) -> pb
            | None, None -> max_int
          in
          pos >= best)
        (Antlist.entries m))

let prop_shift_increments =
  QCheck.Test.make ~name:"shift moves every entry one level deeper" ~count:200 arb_antlist
    (fun l ->
      let s = Antlist.shift l in
      List.for_all
        (fun (id, pos, _) -> Antlist.find s id = Some (pos + 1, Mark.Clear))
        (Antlist.entries l))

(* Raw lists with marks, ids repeated within and across levels and empty
   levels — the shapes [Arbitrary] corruption feeds the protocol.  The
   queries are checked against a naive scan of the raw levels: each level
   deduplicated with its most severe mark, the first level holding an id
   being its closest occurrence. *)
let gen_raw_levels =
  QCheck.Gen.(
    let mark = oneofl [ Mark.Clear; Mark.Clear; Mark.Single; Mark.Double ] in
    list_size (int_range 0 5) (list_size (int_range 0 4) (pair (int_bound 7) mark)))

let print_raw_levels lvls =
  String.concat "; "
    (List.map
       (fun l ->
         "["
         ^ String.concat ","
             (List.map (fun (id, m) -> string_of_int id ^ Mark.to_string m) l)
         ^ "]")
       lvls)

let prop_queries_match_scan =
  QCheck.Test.make ~name:"queries agree with a naive scan of the levels" ~count:500
    (QCheck.make ~print:print_raw_levels gen_raw_levels) (fun raw ->
      let l = Antlist.of_levels raw in
      let naive =
        List.map
          (fun lvl ->
            List.sort_uniq compare (List.map fst lvl)
            |> List.map (fun id ->
                   ( id,
                     List.fold_left
                       (fun m (v, m') -> if v = id then Mark.max m m' else m)
                       Mark.Clear lvl )))
          raw
      in
      let entries =
        List.concat
          (List.mapi (fun pos lvl -> List.map (fun (id, m) -> (id, pos, m)) lvl) naive)
      in
      let find id =
        List.find_map (fun (v, pos, m) -> if v = id then Some (pos, m) else None) entries
      in
      let undoubled id =
        Option.value ~default:(-1)
          (List.find_map
             (fun (v, pos, m) -> if v = id && m <> Mark.Double then Some pos else None)
             entries)
      in
      let set_of p = Node_id.Set.of_list (List.filter_map p entries) in
      let ids = List.map (fun (id, _, _) -> id) entries in
      let well_formed =
        List.for_all (fun lvl -> lvl <> []) naive
        && List.length ids = List.length (List.sort_uniq compare ids)
        && List.for_all (fun (_, pos, m) -> pos <= 1 || m = Mark.Clear) entries
      in
      List.for_all
        (fun id ->
          Antlist.find l id = find id
          && Antlist.mem l id = (find id <> None)
          && Antlist.closest_undoubled l id = undoubled id)
        (List.init 10 Fun.id)
      && Node_id.Set.equal (Antlist.ids l) (set_of (fun (id, _, _) -> Some id))
      && Node_id.Set.equal (Antlist.clear_ids l)
           (set_of (fun (id, _, m) -> if m = Mark.Clear then Some id else None))
      && Antlist.entries l = entries
      && Antlist.well_formed l = well_formed)

(* --- reference model ---

   A plain list-of-levels of [(id, mark)] pairs defines what every
   operation means, on raw inputs with duplicate ids and all three marks:
   - within a level an id appears once, with its most severe mark (a
     same-level tie in a merge keeps the most severe mark);
   - across levels the first (closest) occurrence of an id wins;
   - a merge stops at a level emptied by that deduplication;
   - [strip_marked] keeps interior empty levels, trimming trailing ones;
   - [restrict_clear] compacts empty levels away. *)
module Model = struct
  type t = (Node_id.t * Mark.t) list list

  let norm_level lvl =
    List.sort_uniq compare (List.map fst lvl)
    |> List.map (fun id ->
           ( id,
             List.fold_left
               (fun m (v, m') -> if v = id then Mark.max m m' else m)
               Mark.Clear lvl ))

  let of_raw raw : t = List.map norm_level raw

  let rec nth_level (l : t) i =
    match (l, i) with [], _ -> [] | x :: _, 0 -> x | _ :: r, i -> nth_level r (i - 1)

  let merge (a : t) (b : t) : t =
    let n = max (List.length a) (List.length b) in
    let rec go i seen =
      if i >= n then []
      else
        let lvl =
          norm_level (nth_level a i @ nth_level b i)
          |> List.filter (fun (id, _) -> not (List.mem id seen))
        in
        if lvl = [] then [] else lvl :: go (i + 1) (List.map fst lvl @ seen)
    in
    go 0 []

  let shift (l : t) : t = if l = [] then [] else [] :: l
  let ant a b = merge a (shift b)

  let truncate (l : t) k =
    if k = 0 then []
    else if k < 0 || k >= List.length l then l
    else List.filteri (fun i _ -> i < k) l

  let rec trim_trailing (l : t) : t =
    match List.rev l with [] :: r -> trim_trailing (List.rev r) | _ -> l

  let strip_marked ~keep (l : t) : t =
    trim_trailing (List.map (List.filter (fun (id, m) -> m = Mark.Clear || id = keep)) l)

  let restrict_clear (l : t) : t =
    List.map (List.filter (fun (_, m) -> m = Mark.Clear)) l
    |> List.filter (fun lvl -> lvl <> [])

  let clear_size (l : t) =
    List.fold_left max 0
      (List.mapi
         (fun i lvl -> if List.exists (fun (_, m) -> m = Mark.Clear) lvl then i + 1 else 0)
         l)

  let has_empty_level (l : t) = List.mem [] l

  let well_formed (l : t) =
    let ids = List.concat_map (List.map fst) l in
    (not (has_empty_level l))
    && List.length ids = List.length (List.sort_uniq compare ids)
    && List.for_all Fun.id
         (List.mapi
            (fun i lvl -> i <= 1 || List.for_all (fun (_, m) -> m = Mark.Clear) lvl)
            l)
end

let model_of (l : Antlist.t) : Model.t =
  List.map (List.map (fun e -> (e.Antlist.id, e.Antlist.mark))) (Antlist.levels l)

let gen_model_case =
  QCheck.Gen.(
    let* a = gen_raw_levels and* b = gen_raw_levels in
    let* keep = int_bound 7 and* k = int_range (-1) 6 in
    return (a, b, keep, k))

let prop_reference_model =
  QCheck.Test.make ~name:"operations agree with the list-of-levels reference model"
    ~count:1000
    (QCheck.make
       ~print:(fun (a, b, keep, k) ->
         Printf.sprintf "a=%s b=%s keep=%d k=%d" (print_raw_levels a)
           (print_raw_levels b) keep k)
       gen_model_case)
    (fun (ra, rb, keep, k) ->
      let a = Antlist.of_levels ra and b = Antlist.of_levels rb in
      let ma = Model.of_raw ra and mb = Model.of_raw rb in
      let sign x = compare x 0 in
      let agrees name l m =
        model_of l = m || QCheck.Test.fail_reportf "%s: got %s" name (Antlist.to_string l)
      in
      model_of a = ma
      && agrees "merge" (Antlist.merge a b) (Model.merge ma mb)
      && agrees "ant" (Antlist.ant a b) (Model.ant ma mb)
      && agrees "shift" (Antlist.shift a) (Model.shift ma)
      && agrees "strip_marked" (Antlist.strip_marked ~keep a) (Model.strip_marked ~keep ma)
      && agrees "restrict_clear" (Antlist.restrict_clear a) (Model.restrict_clear ma)
      && agrees "truncate" (Antlist.truncate a k) (Model.truncate ma k)
      && sign (Antlist.compare a b) = sign (compare ma mb)
      && Antlist.equal a b = (ma = mb)
      && Antlist.clear_size a = Model.clear_size ma
      && Antlist.has_empty_level a = Model.has_empty_level ma
      && Antlist.well_formed a = Model.well_formed ma
      && Antlist.well_formed (Antlist.merge a b) = Model.well_formed (Model.merge ma mb))

let qcheck_suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_merge_idempotent;
      prop_ant_absorbs_self;
      prop_merge_ids_bounded;
      prop_merge_no_duplicates;
      prop_merge_positions_min;
      prop_shift_increments;
      prop_queries_match_scan;
      prop_reference_model;
    ]

(* --- algebra laws over the fuzzer's generators --- *)

(* [Dgs_check.Arbitrary] drives everything from one [Rng] seed, and covers
   what [gen_antlist] above deliberately does not: marked entries, and (via
   [Arbitrary.antlist]) ill-formed lists with duplicate ids, interior empty
   levels and deep marks — the shapes fault injection produces.  A failure
   reports the seed, which replays the exact inputs. *)

module Arbitrary = Dgs_check.Arbitrary
module Rng = Dgs_util.Rng

let for_all_seeds name prop =
  for seed = 0 to 499 do
    if not (prop (Rng.create seed)) then
      Alcotest.failf "%s: fails for Rng seed %d" name seed
  done

let test_arb_merge_well_formed () =
  for_all_seeds "merge of well-formed is well-formed" (fun rng ->
      let a = Arbitrary.well_formed_antlist rng in
      let b = Arbitrary.well_formed_antlist rng in
      Antlist.well_formed (Antlist.merge a b))

let test_arb_merge_commutative () =
  for_all_seeds "merge commutes on well-formed inputs" (fun rng ->
      let a = Arbitrary.well_formed_antlist rng in
      let b = Arbitrary.well_formed_antlist rng in
      Antlist.equal (Antlist.merge a b) (Antlist.merge b a))

let test_arb_merge_idempotent_exact () =
  for_all_seeds "l ⊕ l = l on well-formed l" (fun rng ->
      let l = Arbitrary.well_formed_antlist rng in
      Antlist.equal (Antlist.merge l l) l)

let test_arb_truncate_well_formed () =
  for_all_seeds "truncate preserves well-formedness" (fun rng ->
      let l = Arbitrary.well_formed_antlist rng in
      let k = Rng.int rng (Antlist.size l + 2) in
      Antlist.well_formed (Antlist.truncate l k))

let test_arb_restrict_clear_well_formed () =
  for_all_seeds "restrict_clear preserves well-formedness" (fun rng ->
      let l = Arbitrary.well_formed_antlist rng in
      Antlist.well_formed (Antlist.restrict_clear l))

let test_arb_ant_well_formed () =
  (* The r-operator itself moves the neighbor's link-local marks to
     position 2, so [ant] only preserves well-formedness once the receiver
     has stripped them — which is exactly what the protocol does before
     folding. *)
  for_all_seeds "ant over a stripped neighbor list is well-formed" (fun rng ->
      let a = Arbitrary.well_formed_antlist rng in
      let b = Arbitrary.well_formed_antlist rng in
      Antlist.well_formed (Antlist.ant a (Antlist.restrict_clear b)))

let test_arb_strip_marked_claims () =
  (* strip_marked does NOT promise well-formedness (it keeps interior empty
     levels so goodList can reject the result); the accurate contract is
     about which entries survive. *)
  for_all_seeds "strip_marked keeps clear entries and only [keep]'s marks"
    (fun rng ->
      let l = Arbitrary.antlist rng in
      let keep = Rng.int rng 10 in
      let s = Antlist.strip_marked ~keep l in
      Node_id.Set.subset (Antlist.ids s) (Antlist.ids l)
      && Node_id.Set.subset (Antlist.clear_ids l) (Antlist.ids s)
      && List.for_all
           (fun (id, _, mark) -> mark = Mark.Clear || id = keep)
           (Antlist.entries s))

let test_arb_restrict_clear_reference () =
  (* Pins the fused single-pass [restrict_clear] to the obvious two-pass
     model (filter each level to Clear entries, then drop emptied levels),
     on arbitrary — including ill-formed — inputs. *)
  for_all_seeds "restrict_clear = filter-then-compact reference" (fun rng ->
      let l = Arbitrary.antlist rng in
      let reference =
        Antlist.of_levels
          (Antlist.levels l
          |> List.map
               (List.filter_map (fun e ->
                    if e.Antlist.mark = Mark.Clear then
                      Some (e.Antlist.id, e.Antlist.mark)
                    else None))
          |> List.filter (fun lvl -> lvl <> []))
      in
      Antlist.equal (Antlist.restrict_clear l) reference)

let test_arb_merge_dedup_on_junk () =
  (* Even on ill-formed inputs, ⊕ deduplicates: unique ids, each no farther
     than its best occurrence in either input. *)
  for_all_seeds "merge dedups arbitrary (ill-formed) inputs" (fun rng ->
      let a = Arbitrary.antlist rng in
      let b = Arbitrary.antlist rng in
      let m = Antlist.merge a b in
      let all = Antlist.entries m in
      List.length all
      = Node_id.Set.cardinal
          (Node_id.Set.of_list (List.map (fun (id, _, _) -> id) all))
      && List.for_all
           (fun (id, pos, _) ->
             let best =
               match (Antlist.find a id, Antlist.find b id) with
               | Some (pa, _), Some (pb, _) -> min pa pb
               | Some (pa, _), None -> pa
               | None, Some (pb, _) -> pb
               | None, None -> max_int
             in
             pos >= best)
           all)

(* [mem] and [well_formed] are plain searches over the levels: 10k calls
   of each move [Gc.minor_words] by exactly zero. *)
let test_queries_zero_alloc () =
  let l = of_clear [ [ 0 ]; [ 3; 5; 9 ]; [ 1; 4; 7; 8 ]; [ 2; 6 ] ] in
  check "well-formed" true (Antlist.well_formed l);
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    if Antlist.mem l (i land 7) then incr hits;
    if Antlist.mem l (10 + (i land 7)) then incr hits;
    if Antlist.well_formed l then incr hits
  done;
  let delta = Gc.minor_words () -. w0 in
  check_int "hits" 20_000 !hits;
  Alcotest.(check (float 0.0)) "minor words delta" 0.0 delta

(* [ant] allocates its output and nothing else: the outer array and
   each level it built (levels carried over from an input are shared), no
   block per entry.  The inputs exercise every merge branch: same-level
   ties with different marks, deduplication across levels, a level only
   the shifted side has. *)
let test_ant_alloc () =
  let c id = (id, Mark.Clear) in
  let own = Antlist.of_levels [ [ c 0 ]; [ c 1; (4, Mark.Single) ]; [ c 7 ] ] in
  let from = Antlist.of_levels [ [ c 4 ]; [ c 0; (7, Mark.Double); c 9 ]; [ c 3; c 8 ] ] in
  let r = Antlist.ant own from in
  check "merged" true
    (Antlist.equal r
       (Antlist.of_levels
          [ [ c 0 ]; [ c 1; (4, Mark.Single) ]; [ (7, Mark.Double); c 9 ]; [ c 3; c 8 ] ]));
  (* A header plus one word per slot: the outer array (4 levels, 5 words);
     level 0 is [own]'s, level 3 [from]'s last level, both shared; levels
     1 and 2 are unions of two input levels, 3 words each. *)
  let words = 5 + 3 + 3 in
  ignore (Antlist.ant own from);
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (Antlist.ant own from))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int iters in
  Alcotest.(check (float 0.0)) "minor words per ant = its output arrays" (float_of_int words)
    per_call

(* --- the one-table fold against the pairwise fold of [ant] --- *)

let pairwise_fold seed lists = List.fold_left Antlist.ant seed lists

let one_table_fold seed lists =
  let acc = Antlist.ant_fold_start seed in
  List.iter (Antlist.ant_fold_add acc) lists;
  Antlist.ant_fold_finish acc

(* A raw list over ids [0, ids) — few enough that ids repeat across
   levels and across senders — with interior empty levels, marked entries
   anywhere, and now and then a marked singleton, the stub of a rejected
   sender. *)
let raw_list rng ~ids ~width =
  if Rng.int rng 6 = 0 then
    Antlist.singleton_marked (Rng.int rng ids)
      (if Rng.bool rng then Mark.Single else Mark.Double)
  else
    Antlist.of_levels
      (List.init (Rng.int rng 5) (fun _ ->
           if Rng.int rng 5 = 0 then []
           else
             List.init
               (1 + Rng.int rng width)
               (fun _ ->
                 ( Rng.int rng ids,
                   match Rng.int rng 6 with
                   | 0 -> Mark.Single
                   | 1 -> Mark.Double
                   | _ -> Mark.Clear ))))

let test_arb_fold_matches_pairwise () =
  for_all_seeds "one-table fold = left fold of ant" (fun rng ->
      (* Narrow levels mostly; wide ones build levels past the insertion
         sort's cutoff. *)
      let ids, width = if Rng.int rng 4 = 0 then (64, 40) else (12, 4) in
      let raw_list rng = raw_list rng ~ids ~width in
      let seed =
        match Rng.int rng 4 with
        | 0 -> Arbitrary.antlist rng
        | 1 -> Antlist.empty
        | _ -> Antlist.singleton (Rng.int rng 12)
      in
      let lists = List.init (Rng.int rng 7) (fun _ -> raw_list rng) in
      (* Duplicate senders: the same list twice, or a second list headed
         by an id some earlier list is headed by. *)
      let lists =
        match lists with
        | l :: _ when Rng.bool rng -> lists @ [ l ]
        | l :: _ when Rng.bool rng -> (
            match Antlist.level l 0 with
            | e :: _ ->
                lists @ [ Antlist.ant (Antlist.singleton e.Antlist.id) (raw_list rng) ]
            | [] -> lists)
        | _ -> lists
      in
      Antlist.equal (one_table_fold seed lists) (pairwise_fold seed lists))

(* The fold truncates after each list, as [ant] does.  The second list
   repeats 3 one level closer, which empties level 4 and drops 4 for
   good; a one-shot union of all three lists would keep 4 at level 4. *)
let test_fold_gap_truncation_witness () =
  let lists =
    [
      of_clear [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ];
      of_clear [ [ 5 ]; [ 3 ] ];
      of_clear [ [ 6 ]; [ 7 ]; [ 8 ] ];
    ]
  in
  let expected = of_clear [ [ 0 ]; [ 1; 5; 6 ]; [ 2; 3; 7 ]; [ 8 ] ] in
  Alcotest.check al "pairwise" expected (pairwise_fold (Antlist.singleton 0) lists);
  Alcotest.check al "one table" expected (one_table_fold (Antlist.singleton 0) lists)

let test_fold_without_lists_is_seed () =
  let seed = of_clear [ [ 0 ]; []; [ 1 ] ] in
  check "seed returned as is" true (one_table_fold seed [] == seed)

(* The fold allocates its result and nothing else: the outer array and
   one array per level, no block per entry, once the domain's table has
   grown to the fold's ids. *)
let test_fold_alloc () =
  let c id = (id, Mark.Clear) in
  let seed = Antlist.singleton 0 in
  let lists =
    [
      Antlist.of_levels [ [ c 4 ]; [ c 0; (7, Mark.Double); c 9 ]; [ c 3; c 8 ] ];
      Antlist.of_levels [ [ c 1 ]; [ c 0; c 9 ]; [ c 5 ] ];
      Antlist.singleton_marked 7 Mark.Single;
      Antlist.of_levels [ [ c 2 ]; [ c 11; c 12; c 13 ] ];
    ]
  in
  let r = one_table_fold seed lists in
  Alcotest.check al "folded" (pairwise_fold seed lists) r;
  let words =
    Antlist.size r + 1
    + List.fold_left (fun acc lvl -> acc + List.length lvl + 1) 0 (Antlist.levels r)
  in
  let rec add_all acc = function
    | [] -> ()
    | l :: rest ->
        Antlist.ant_fold_add acc l;
        add_all acc rest
  in
  let fold () =
    let acc = Antlist.ant_fold_start seed in
    add_all acc lists;
    Antlist.ant_fold_finish acc
  in
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (fold ()))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int iters in
  Alcotest.(check (float 0.0)) "minor words per fold = its output arrays" (float_of_int words)
    per_call

let arbitrary_suite =
  [
    ("arb: merge well-formed", `Quick, test_arb_merge_well_formed);
    ("arb: merge commutative", `Quick, test_arb_merge_commutative);
    ("arb: merge idempotent", `Quick, test_arb_merge_idempotent_exact);
    ("arb: truncate well-formed", `Quick, test_arb_truncate_well_formed);
    ("arb: restrict_clear well-formed", `Quick, test_arb_restrict_clear_well_formed);
    ("arb: restrict_clear matches reference", `Quick, test_arb_restrict_clear_reference);
    ("arb: ant well-formed after strip", `Quick, test_arb_ant_well_formed);
    ("arb: strip_marked contract", `Quick, test_arb_strip_marked_claims);
    ("arb: merge dedups junk", `Quick, test_arb_merge_dedup_on_junk);
    ("arb: one-table fold matches pairwise ant", `Quick, test_arb_fold_matches_pairwise);
  ]

let suite =
  [
    ("singleton", `Quick, test_singleton);
    ("singleton marked", `Quick, test_singleton_marked);
    ("paper merge example", `Quick, test_paper_example);
    ("shift (r endomorphism)", `Quick, test_shift);
    ("ant basic", `Quick, test_ant_basic);
    ("ant dedupe keeps closest", `Quick, test_ant_dedupe_keeps_closest);
    ("ant self dedupe", `Quick, test_ant_self_dedupe);
    ("gap truncation", `Quick, test_gap_truncation);
    ("mark severity in level", `Quick, test_merge_mark_severity);
    ("clear size", `Quick, test_clear_size_ignores_marked_tail);
    ("strip marked", `Quick, test_strip_marked);
    ("strip keeps interior empty", `Quick, test_strip_keeps_interior_empty);
    ("truncate", `Quick, test_truncate);
    ("ids and entries", `Quick, test_ids_and_entries);
    ("well_formed", `Quick, test_well_formed);
    ("restrict_clear", `Quick, test_restrict_clear);
    ("compare/equal", `Quick, test_compare_equal);
    ("mem and well_formed allocate nothing", `Quick, test_queries_zero_alloc);
    ("ant allocates only its output arrays", `Quick, test_ant_alloc);
    ("fold gap-truncation witness", `Quick, test_fold_gap_truncation_witness);
    ("fold without lists is the seed", `Quick, test_fold_without_lists_is_seed);
    ("fold allocates only its output arrays", `Quick, test_fold_alloc);
  ]
  @ qcheck_suite @ arbitrary_suite
