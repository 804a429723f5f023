type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
      sqrt (sq /. (n -. 1.0))

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of [0,1]";
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = if xs = [] then 0.0 else percentile 0.5 xs

let summarize xs =
  match xs with
  | [] -> { count = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0; median = 0.0 }
  | _ ->
      {
        count = List.length xs;
        mean = mean xs;
        stddev = stddev xs;
        min = List.fold_left Float.min Float.infinity xs;
        max = List.fold_left Float.max Float.neg_infinity xs;
        median = median xs;
      }

let pp_summary ppf s =
  Format.fprintf ppf "%.2f ± %.2f [%.2f,%.2f]" s.mean s.stddev s.min s.max
