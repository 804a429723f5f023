type ('prio, 'a) node = { key : 'prio; value : 'a; mutable children : ('prio, 'a) node list }

type ('prio, 'a) t = { cmp : 'prio -> 'prio -> int; mutable root : ('prio, 'a) node option }

let create ~cmp = { cmp; root = None }

let meld cmp a b =
  if cmp a.key b.key <= 0 then (
    a.children <- b :: a.children;
    a)
  else (
    b.children <- a :: b.children;
    b)

let add t key value =
  let n = { key; value; children = [] } in
  t.root <- (match t.root with None -> Some n | Some r -> Some (meld t.cmp r n))

(* Two-pass pairing merge of the root's children. *)
let rec merge_pairs cmp = function
  | [] -> None
  | [ x ] -> Some x
  | a :: b :: rest -> (
      let ab = meld cmp a b in
      match merge_pairs cmp rest with None -> Some ab | Some r -> Some (meld cmp ab r))

(* Conditional pop: the peek and the pop share one root traversal, so a
   horizon-bounded event loop pays a single heap operation per event
   instead of peek-then-pop's two. *)
let pop_if t pred =
  match t.root with
  | Some r when pred r.key ->
      t.root <- merge_pairs t.cmp r.children;
      Some (r.key, r.value)
  | _ -> None
