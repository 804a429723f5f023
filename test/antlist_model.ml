(* The list-of-levels model of [Antlist]: what each operation means,
   written as directly as the definitions read, on plain lists of
   [(id, mark)] pairs.  It is the one definition of the paper's [⊕] and
   [r] (Section 4.2) in the repository: [Antlist]'s one-table fold, the
   only [⊕] the protocol runs, is checked against the left fold of [ant]
   here, the r-algebra tests iterate it as an r-operator, and the
   cache-free reference node folds with it.

   - within a level an id appears once, with its most severe mark (a
     same-level tie in a merge keeps the most severe mark);
   - across levels the first (closest) occurrence of an id wins;
   - a merge stops at a level emptied by that deduplication;
   - [strip_marked] keeps interior empty levels, trimming trailing ones;
   - [restrict_clear] drops marked entries and compacts empty levels
     away. *)

open Dgs_core

type t = (Node_id.t * Mark.t) list list

(* A level's entries sorted by id, one per id with its most severe
   mark. *)
let norm_level lvl =
  List.fold_right
    (fun (id, m) acc ->
      match acc with
      | (id', m') :: r when id' = id -> (id, Mark.max m m') :: r
      | _ -> (id, m) :: acc)
    (List.sort compare lvl) []

let of_raw raw : t = List.map norm_level raw
let of_antlist l : t =
  List.map (List.map (fun e -> (e.Antlist.id, e.Antlist.mark))) (Antlist.levels l)

let to_antlist (l : t) = Antlist.of_levels l
let singleton id : t = [ [ (id, Mark.Clear) ] ]
let pp ppf l = Antlist.pp ppf (to_antlist l)
let to_string l = Antlist.to_string (to_antlist l)

let rec nth_level (l : t) i =
  match (l, i) with [], _ -> [] | x :: _, 0 -> x | _ :: r, i -> nth_level r (i - 1)

let ids (l : t) = Node_id.Set.of_list (List.concat_map (List.map fst) l)

(* The ids of level [i], whatever their marks. *)
let level_ids (l : t) i = Node_id.Set.of_list (List.map fst (nth_level l i))

(* Position of the closest occurrence of [id] that is not double-marked;
   -1 when there is none. *)
let closest_undoubled (l : t) id =
  let rec from pos = function
    | [] -> -1
    | lvl :: r -> (
        match List.assoc_opt id lvl with
        | Some (Mark.Clear | Mark.Single) -> pos
        | Some Mark.Double | None -> from (pos + 1) r)
  in
  from 0 l

(* Position and mark of the closest occurrence of [id]. *)
let find (l : t) id =
  List.find_map Fun.id
    (List.mapi (fun pos lvl -> Option.map (fun m -> (pos, m)) (List.assoc_opt id lvl)) l)

let merge (a : t) (b : t) : t =
  let rest = function [] -> [] | _ :: r -> r in
  let rec go a b seen =
    if a = [] && b = [] then []
    else
      let lvl =
        norm_level (nth_level a 0 @ nth_level b 0)
        |> List.filter (fun (id, _) -> not (Node_id.Set.mem id seen))
      in
      if lvl = [] then []
      else lvl :: go (rest a) (rest b) (Node_id.Set.union (ids [ lvl ]) seen)
  in
  go a b Node_id.Set.empty

let shift (l : t) : t = if l = [] then [] else [] :: l
let ant a b = merge a (shift b)

(* [ant (... (ant seed l1) ...) lk]: what [Antlist.ant_fold_*] computes. *)
let fold seed lists = List.fold_left ant seed lists

let truncate (l : t) k =
  if k = 0 then [] else if k < 0 || k >= List.length l then l else List.filteri (fun i _ -> i < k) l

let rec trim_trailing (l : t) : t =
  match List.rev l with [] :: r -> trim_trailing (List.rev r) | _ -> l

let strip_marked ~keep (l : t) : t =
  trim_trailing (List.map (List.filter (fun (id, m) -> m = Mark.Clear || id = keep)) l)

let restrict_clear (l : t) : t =
  List.map (List.filter (fun (_, m) -> m = Mark.Clear)) l |> List.filter (fun lvl -> lvl <> [])

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
       (List.mapi (fun i lvl -> i <= 1 || List.for_all (fun (_, m) -> m = Mark.Clear) lvl) l)
