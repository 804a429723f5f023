module Graph = Dgs_graph.Graph
module Int_tbl = Dgs_util.Int_tbl
open Dgs_core

type verdicts = {
  agreement : Predicates.violation option;
  safety : Predicates.violation option;
  maximality : Predicates.violation option;
}

type stats = { polls : int; dirtied : int; full_passes : int; cross_checks : int }

exception Mismatch of string

(* What the previous poll saw of one node.  Neighbor sets and views are
   immutable, so keeping them is safe even when the caller mutates the
   graph in place between polls. *)
type seen = { adj : Node_id.Set.t; view : Node_id.Set.t }

type t = {
  dmax : int;
  cross_check_limit : int;
  marked : unit Int_tbl.t;
  prev : seen Int_tbl.t;
  mutable last : verdicts option;
  mutable polls : int;
  mutable dirtied : int;
  mutable full_passes : int;
  mutable cross_checks : int;
}

let create ?(cross_check_limit = 64) ~dmax () =
  {
    dmax;
    cross_check_limit;
    marked = Int_tbl.create 16;
    prev = Int_tbl.create 64;
    last = None;
    polls = 0;
    dirtied = 0;
    full_passes = 0;
    cross_checks = 0;
  }

let mark_dirty t v = Int_tbl.replace t.marked v ()

(* Nodes dirty since the previous poll, each counted once: new, departed,
   or present and marked or with a changed adjacency or view. *)
let count_dirty t c =
  let graph = c.Configuration.graph in
  let same a b = a == b || Node_id.Set.equal a b in
  let changed v =
    Int_tbl.mem t.marked v
    ||
    match Int_tbl.find_opt t.prev v with
    | None -> true
    | Some s ->
        not (same s.adj (Graph.neighbors graph v) && same s.view (Configuration.view c v))
  in
  let gone v = not (Graph.mem_node graph v) in
  let n = Graph.fold_nodes graph ~init:0 ~f:(fun n v -> if changed v then n + 1 else n) in
  Int_tbl.fold (fun v _ n -> if gone v then n + 1 else n) t.prev n

(* All three predicates in one pass, witness for witness equal to the full
   checkers'. *)
let full_pass ~dmax c =
  let graph = c.Configuration.graph in
  let nodes = Configuration.nodes c in
  (* ΠS.  Ω groups partition the nodes (a member of an agreed group is
     agreed, with the same group), so each group is computed and judged
     once, at its first node in sorted order, and named by its minimum
     member; the first node of a failing group is the full scan's
     witness. *)
  let group_of = Int_tbl.create 64 and groups = Int_tbl.create 64 in
  let safety = ref None in
  List.iter
    (fun v ->
      let m =
        match Int_tbl.find_opt group_of v with
        | Some m -> m
        | None ->
            let g = Configuration.omega c v in
            let m = Node_id.Set.min_elt g in
            Node_id.Set.iter (fun u -> Int_tbl.replace group_of u m) g;
            Int_tbl.replace groups m (g, Predicates.group_diameter_ok ~dmax graph g);
            m
      in
      match Int_tbl.find groups m with
      | g, false when Option.is_none !safety ->
          safety := Some (Predicates.safety_violation ~dmax v g)
      | _ -> ())
    nodes;
  (* ΠM.  Two disjoint groups whose union is connected are joined by an
     edge, so only such pairs can merge; trying them in (min, min) order
     finds the full checker's first witness.  Each cross edge adds its
     pair once, from the endpoint in the lower group. *)
  let pairs = ref [] in
  List.iter
    (fun u ->
      let mu = Int_tbl.find group_of u in
      Graph.iter_neighbors graph u (fun w ->
          let mw = Int_tbl.find group_of w in
          if mu < mw then pairs := (mu, mw) :: !pairs))
    nodes;
  let by_mins (a, b) (a', b') = if a <> a' then Int.compare a a' else Int.compare b b' in
  let maximality =
    List.find_map
      (fun (ma, mb) ->
        let ga = fst (Int_tbl.find groups ma) and gb = fst (Int_tbl.find groups mb) in
        if Predicates.group_diameter_ok ~dmax graph (Node_id.Set.union ga gb) then
          Some (Predicates.merge_violation ~dmax ga gb)
        else None)
      (List.sort_uniq by_mins !pairs)
  in
  { agreement = Predicates.agreement c; safety = !safety; maximality }

let cross_check t c result =
  t.cross_checks <- t.cross_checks + 1;
  let full =
    {
      agreement = Predicates.agreement c;
      safety = Predicates.safety ~dmax:t.dmax c;
      maximality = Predicates.maximality ~dmax:t.dmax c;
    }
  in
  let pp_v ppf = function
    | None -> Format.fprintf ppf "ok"
    | Some v -> Predicates.pp_violation ppf v
  in
  let differ name a b =
    if a <> b then
      raise
        (Mismatch
           (Format.asprintf "%s: incremental %a vs full %a (poll %d)" name pp_v a pp_v b
              t.polls))
  in
  differ "agreement" result.agreement full.agreement;
  differ "safety" result.safety full.safety;
  differ "maximality" result.maximality full.maximality

let check t c =
  t.polls <- t.polls + 1;
  let dirty = count_dirty t c in
  Int_tbl.clear t.marked;
  t.dirtied <- t.dirtied + dirty;
  match t.last with
  | Some r when dirty = 0 ->
      (* Nothing changed since the previous poll, so its verdicts and
         snapshot still stand. *)
      r
  | _ ->
      let r = full_pass ~dmax:t.dmax c in
      t.full_passes <- t.full_passes + 1;
      let graph = c.Configuration.graph in
      if Graph.node_count graph <= t.cross_check_limit then cross_check t c r;
      Int_tbl.clear t.prev;
      Graph.iter_nodes graph (fun v ->
          Int_tbl.replace t.prev v
            { adj = Graph.neighbors graph v; view = Configuration.view c v });
      t.last <- Some r;
      r

let legitimate v =
  match v.agreement with
  | Some _ as x -> x
  | None -> ( match v.safety with Some _ as x -> x | None -> v.maximality)

let stats t =
  {
    polls = t.polls;
    dirtied = t.dirtied;
    full_passes = t.full_passes;
    cross_checks = t.cross_checks;
  }
