type t = { name : string; mutable points : (float * float) list }

let create ~name = { name; points = [] }
let name t = t.name
let record t ~time v = t.points <- (time, v) :: t.points
let record_int t ~time v = record t ~time (float_of_int v)
let length t = List.length t.points
let points t = List.rev t.points
let last t = match t.points with [] -> None | p :: _ -> Some p
let values t = List.rev_map snd t.points

let to_csv t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf ("time," ^ Table.csv_escape t.name ^ "\n");
  List.iter
    (fun (time, v) -> Buffer.add_string buf (Printf.sprintf "%f,%f\n" time v))
    (points t);
  Buffer.contents buf
