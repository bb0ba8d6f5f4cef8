(* The few JSON shapes the benchmark prints. *)

type t = Num of float | Int of int | Str of string | Bool of bool | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  (* A non-finite value is a benchmark bug: fail loudly rather than
     print an invalid document. *)
  | Num f -> if Float.is_finite f then Printf.sprintf "%.15g" f else invalid_arg "Pb_json: non-finite number"
  | Int n -> string_of_int n
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> string_of_bool b
  | Obj kvs -> "{" ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs) ^ "}"
