type algorithm = Maxmin of int | Lowest_id of int

let algorithm_name = function
  | Maxmin d -> Printf.sprintf "maxmin(d=%d)" d
  | Lowest_id k -> Printf.sprintf "lowest-id(k=%d)" k

let cluster algorithm g =
  match algorithm with
  | Maxmin d -> Maxmin.views (Maxmin.run ~d g)
  | Lowest_id k -> Lowest_id.views (Lowest_id.run ~k g)
