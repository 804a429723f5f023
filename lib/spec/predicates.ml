module Graph = Dgs_graph.Graph
module Int_tbl = Dgs_util.Int_tbl
open Dgs_core

type violation = { predicate : string; subject : Node_id.t list; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "%s violated at [%a]: %s" v.predicate
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Node_id.pp)
    v.subject v.detail

let fail predicate subject detail = Some { predicate; subject; detail }

let find_map_nodes c f =
  let rec go = function [] -> None | v :: rest -> (match f v with None -> go rest | s -> s) in
  go (Configuration.nodes c)

let agreement_at c ~nodes v =
  let vw = Configuration.view c v in
  if not (Node_id.Set.mem v vw) then
    fail "agreement" [ v ] "node does not belong to its own view"
  else if not (Node_id.Set.subset vw nodes) then
    fail "agreement" [ v ] "view contains a non-existing node"
  else
    Node_id.Set.fold
      (fun u acc ->
        match acc with
        | Some _ -> acc
        | None ->
            if Node_id.Set.equal (Configuration.view c u) vw then None
            else
              fail "agreement" [ v; u ]
                (Format.asprintf "views differ: %a vs %a" Node_id.pp_set vw
                   Node_id.pp_set (Configuration.view c u)))
      vw None

let agreement c =
  let node_set = Node_id.Set.of_list (Configuration.nodes c) in
  find_map_nodes c (fun v -> agreement_at c ~nodes:node_set v)

(* The induced diameter is at most [dmax] iff a BFS from every member,
   kept inside the members and stopped at depth [dmax], reaches them all.
   Ids absent from the graph are not members, as in [Graph.induced].
   [seen u] is the last source whose BFS reached member [u]. *)
let group_diameter_ok ~dmax graph group =
  let seen = Int_tbl.create 16 in
  Node_id.Set.iter (fun u -> if Graph.mem_node graph u then Int_tbl.replace seen u (-1)) group;
  let size = Int_tbl.length seen in
  let reaches_all src =
    Int_tbl.replace seen src src;
    let rec level depth frontier reached =
      if reached = size then true
      else if depth = dmax || frontier = [] then false
      else begin
        let next = ref [] and reached = ref reached in
        List.iter
          (fun v ->
            Graph.iter_neighbors graph v (fun u ->
                match Int_tbl.find seen u with
                | s when s <> src ->
                    Int_tbl.replace seen u src;
                    incr reached;
                    next := u :: !next
                | _ | (exception Not_found) -> ()))
          frontier;
        level (depth + 1) !next !reached
      end
    in
    level 0 [ src ] 1
  in
  size <= 1 || Node_id.Set.for_all (fun v -> (not (Int_tbl.mem seen v)) || reaches_all v) group

let safety_violation ~dmax v g =
  {
    predicate = "safety";
    subject = [ v ];
    detail =
      Format.asprintf "group %a is disconnected or wider than %d" Node_id.pp_set g dmax;
  }

let safety_at ~dmax c v =
  let g = Configuration.omega c v in
  if group_diameter_ok ~dmax c.Configuration.graph g then None
  else Some (safety_violation ~dmax v g)

let safety ~dmax c = find_map_nodes c (fun v -> safety_at ~dmax c v)

let merge_violation ~dmax g g' =
  {
    predicate = "maximality";
    subject = [ Node_id.Set.min_elt g; Node_id.Set.min_elt g' ];
    detail =
      Format.asprintf "groups %a and %a could merge within %d" Node_id.pp_set g
        Node_id.pp_set g' dmax;
  }

let maximality ~dmax c =
  let groups = Configuration.groups c in
  let rec pairs = function
    | [] -> None
    | g :: rest -> (
        let mergeable =
          List.find_opt
            (fun g' -> group_diameter_ok ~dmax c.Configuration.graph (Node_id.Set.union g g'))
            rest
        in
        match mergeable with
        | Some g' -> Some (merge_violation ~dmax g g')
        | None -> pairs rest)
  in
  pairs groups

let legitimate ~dmax c =
  match agreement c with
  | Some _ as v -> v
  | None -> ( match safety ~dmax c with Some _ as v -> v | None -> maximality ~dmax c)

(* ΠT and ΠC are evaluated over views rather than Ω: Ω collapses to
   singletons whenever members update views at (inevitably) staggered
   times, so the Ω-based reading of the paper's definition would flag every
   legal merge; the proof of Proposition 14 argues over views, which is the
   reading implemented here (DESIGN.md Section 5). *)
let topology_preserved ~dmax c c' =
  find_map_nodes c (fun v ->
      let g = Configuration.view c v in
      if group_diameter_ok ~dmax c'.Configuration.graph g then None
      else
        fail "topology" [ v ]
          (Format.asprintf "group %a stretched beyond %d by the topology change"
             Node_id.pp_set g dmax))

let continuity c c' =
  find_map_nodes c (fun v ->
      let g = Configuration.view c v in
      let g' = Configuration.view c' v in
      if Node_id.Set.subset g g' then None
      else
        let missing = Node_id.Set.diff g g' in
        fail "continuity"
          (v :: Node_id.Set.elements missing)
          (Format.asprintf "nodes %a disappeared from the view of %a" Node_id.pp_set
             missing Node_id.pp v))

let best_effort ~dmax c c' =
  match topology_preserved ~dmax c c' with
  | Some _ -> None (* ΠT broken: ΠC is not owed *)
  | None -> (
      match continuity c c' with
      | None -> None
      | Some v -> Some { v with predicate = "best-effort (ΠT ∧ ¬ΠC)" })
