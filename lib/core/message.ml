type t = {
  sender : Node_id.t;
  antlist : Antlist.t;
  priority_ids : Node_id.t array;
  priorities : Priority.t array;
  group_priority : Priority.t;
  view : Node_id.Set.t;
}

let make ~sender ~antlist ~priority_ids ~priorities ~group_priority ~view =
  if Array.length priority_ids <> Array.length priorities then
    invalid_arg "Message.make: priority arrays differ in length";
  { sender; antlist; priority_ids; priorities; group_priority; view }

let priority_arrays bindings =
  (* Stable on the reversed input: the last binding of an id comes first. *)
  let rec dedup = function
    | (u, p) :: ((v, _) :: _ as rest) when Node_id.equal u v ->
        dedup ((u, p) :: List.tl rest)
    | b :: rest -> b :: dedup rest
    | [] -> []
  in
  let kept =
    dedup (List.stable_sort (fun (u, _) (v, _) -> Node_id.compare u v) (List.rev bindings))
  in
  let n = List.length kept in
  let ids = Array.make n 0 and vals = Array.make n Priority.lowest in
  List.iteri
    (fun i (v, p) ->
      ids.(i) <- v;
      vals.(i) <- p)
    kept;
  (ids, vals)

let priority_bindings t =
  List.init (Array.length t.priority_ids) (fun i -> (t.priority_ids.(i), t.priorities.(i)))

let pp ppf t =
  Format.fprintf ppf "@[<h>msg from %a: %a (grp-pr %a)@]" Node_id.pp t.sender Antlist.pp
    t.antlist Priority.pp t.group_priority
