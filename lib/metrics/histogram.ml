type t = {
  bin_width : float;
  counts : (int, int) Hashtbl.t;
  mutable n : int;
  mutable sum : float;
}

let create ?(bin_width = 1.0) () =
  if bin_width <= 0.0 then invalid_arg "Histogram.create: bin width must be positive";
  { bin_width; counts = Hashtbl.create 16; n = 0; sum = 0.0 }

let add t x =
  let bin = int_of_float (floor (x /. t.bin_width)) in
  Hashtbl.replace t.counts bin (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts bin));
  t.n <- t.n + 1;
  t.sum <- t.sum +. x

let add_int t x = add t (float_of_int x)
let bin_width t = t.bin_width
let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let bins t =
  Hashtbl.fold (fun b c acc -> (float_of_int b *. t.bin_width, c) :: acc) t.counts []
  |> List.sort compare

let render ?(width = 40) t =
  let bs = bins t in
  let peak = List.fold_left (fun acc (_, c) -> max acc c) 1 bs in
  let buf = Buffer.create 128 in
  List.iter
    (fun (lo, c) ->
      let bar = String.make (max 1 (c * width / peak)) '#' in
      Buffer.add_string buf (Printf.sprintf "%8.1f | %s %d\n" lo bar c))
    bs;
  Buffer.contents buf
