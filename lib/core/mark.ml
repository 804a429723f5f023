type t = Clear | Single | Double

let severity = function Clear -> 0 | Single -> 1 | Double -> 2
let compare a b = Int.compare (severity a) (severity b)
let max a b = if compare a b >= 0 then a else b
let is_marked = function Clear -> false | Single | Double -> true
let to_string = function Clear -> "" | Single -> "'" | Double -> "''"
let pp ppf m = Format.pp_print_string ppf (to_string m)
