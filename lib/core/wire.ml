let magic = "GRP1"

let mark_suffix = function Mark.Clear -> "" | Mark.Single -> "'" | Mark.Double -> "''"

let antlist_to_string lst =
  let b = Buffer.create 64 in
  for i = 0 to Antlist.size lst - 1 do
    if i > 0 then Buffer.add_char b '/';
    ignore
      (Antlist.fold_level lst i ~init:true ~f:(fun first id mark ->
           if not first then Buffer.add_char b ',';
           Buffer.add_string b (string_of_int id);
           Buffer.add_string b (mark_suffix mark);
           false))
  done;
  Buffer.contents b

let priority_to_string (p : Priority.t) =
  Printf.sprintf "%d.%d" p.Priority.oldness p.Priority.id

let to_string (m : Message.t) =
  let priorities =
    Message.priority_bindings m
    |> List.map (fun (v, p) -> Printf.sprintf "%d:%s" v (priority_to_string p))
    |> String.concat ","
  in
  let view =
    Array.to_list m.Message.view |> List.map string_of_int |> String.concat ","
  in
  String.concat "|"
    [
      magic;
      string_of_int m.Message.sender;
      antlist_to_string m.Message.antlist;
      priorities;
      priority_to_string m.Message.group_priority;
      view;
    ]

(* --- parsing: total, no exceptions escape --- *)

let parse_nat s =
  if s = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') s) then None
  else int_of_string_opt s

(* Node ids must fit the packed antlist entries: [0 <= id < 2^60]. *)
let max_id = (1 lsl 60) - 1

let parse_id s = match parse_nat s with Some v when v <= max_id -> Some v | _ -> None

let parse_entry s =
  let n = String.length s in
  if n >= 2 && String.sub s (n - 2) 2 = "''" then
    Option.map (fun id -> (id, Mark.Double)) (parse_id (String.sub s 0 (n - 2)))
  else if n >= 1 && s.[n - 1] = '\'' then
    Option.map (fun id -> (id, Mark.Single)) (parse_id (String.sub s 0 (n - 1)))
  else Option.map (fun id -> (id, Mark.Clear)) (parse_id s)

let parse_all parse items =
  List.fold_right
    (fun item acc ->
      match (acc, parse item) with
      | Some tl, Some x -> Some (x :: tl)
      | _ -> None)
    items (Some [])

let parse_antlist s =
  if s = "" then Some Antlist.empty
  else
    String.split_on_char '/' s
    |> parse_all (fun level ->
           if level = "" then Some []
           else String.split_on_char ',' level |> parse_all parse_entry)
    |> Option.map Antlist.of_levels

let parse_priority s =
  match String.split_on_char '.' s with
  | [ oldness; id ] -> (
      match (parse_nat oldness, parse_id id) with
      | Some oldness, Some id -> Some (Priority.make ~oldness ~id)
      | _ -> None)
  | _ -> None

let parse_priorities s =
  if s = "" then Some ([||], [||])
  else
    String.split_on_char ',' s
    |> parse_all (fun pair ->
           match String.index_opt pair ':' with
           | None -> None
           | Some i -> (
               let id = String.sub pair 0 i in
               let p = String.sub pair (i + 1) (String.length pair - i - 1) in
               match (parse_id id, parse_priority p) with
               | Some id, Some p -> Some (id, p)
               | _ -> None))
    |> Option.map Message.priority_arrays

(* A corrupted frame may repeat or reorder ids: the view is made strictly
   increasing, as a message requires. *)
let parse_view s =
  if s = "" then Some [||]
  else
    String.split_on_char ',' s |> parse_all parse_id
    |> Option.map (fun ids -> Array.of_list (List.sort_uniq Node_id.compare ids))

let of_string s =
  match String.split_on_char '|' s with
  | [ m; sender; antlist; priorities; group_priority; view ] when m = magic -> (
      match
        ( parse_id sender,
          parse_antlist antlist,
          parse_priorities priorities,
          parse_priority group_priority,
          parse_view view )
      with
      | ( Some sender,
          Some antlist,
          Some (priority_ids, priorities),
          Some group_priority,
          Some view ) ->
          Some
            (Message.make ~sender ~antlist ~priority_ids ~priorities ~group_priority ~view)
      | _ -> None)
  | _ -> None

let corrupt rng ?(mutations = 1) s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    for _ = 1 to mutations do
      let i = Dgs_util.Rng.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (32 + Dgs_util.Rng.int rng 95))
    done;
    Bytes.to_string b
  end
