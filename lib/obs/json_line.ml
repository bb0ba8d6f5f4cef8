(* --- writing ------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""

let float f = Printf.sprintf "%.17g" f

let opt f = function Some x -> f x | None -> "null"

let list f l = "[" ^ String.concat ", " (List.map f l) ^ "]"

let obj fields =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_char b '"';
      Buffer.add_string b k;
      Buffer.add_string b "\": ";
      Buffer.add_string b v)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* --- reading ------------------------------------------------------------ *)

type t = Null | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Bad

(* Recursive descent over one line; any deviation raises [Bad]. *)
let parse line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t' || line.[!pos] = '\r') then begin
      incr pos;
      skip_ws ()
    end
  in
  let expect c =
    skip_ws ();
    if peek () = c then incr pos else raise Bad
  in
  let next () =
    if !pos >= n then raise Bad;
    let c = line.[!pos] in
    incr pos;
    c
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char b c
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' when !pos + 4 <= n -> (
              match int_of_string_opt ("0x" ^ String.sub line !pos 4) with
              | Some code when code < 0x100 ->
                  Buffer.add_char b (Char.chr code);
                  pos := !pos + 4
              | Some _ | None -> raise Bad)
          | _ -> raise Bad);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match line.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some f -> Num f
    | None -> raise Bad
  in
  let null () =
    if !pos + 4 <= n && String.sub line !pos 4 = "null" then begin
      pos := !pos + 4;
      Null
    end
    else raise Bad
  in
  let items close item =
    skip_ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match next () with
        | ',' -> go acc
        | c when c = close -> List.rev acc
        | _ -> raise Bad
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (string ())
    | '{' ->
        incr pos;
        Obj
          (items '}' (fun () ->
               let k = string () in
               expect ':';
               (k, value ())))
    | '[' ->
        incr pos;
        Arr (items ']' value)
    | 'n' -> null ()
    | _ -> number ()
  in
  match value () with
  | v ->
      skip_ws ();
      if !pos = n then Some v else None
  | exception Bad -> None

let field o k =
  match o with
  | Obj kvs -> ( match List.assoc_opt k kvs with None | Some Null -> None | Some v -> Some v)
  | Null | Num _ | Str _ | Arr _ -> raise Bad

let get o k = match field o k with Some v -> v | None -> raise Bad

let num o k = match get o k with Num f -> f | Null | Str _ | Arr _ | Obj _ -> raise Bad

let int o k = int_of_float (num o k)

let str o k = match get o k with Str s -> s | Null | Num _ | Arr _ | Obj _ -> raise Bad

let arr o k = match get o k with Arr l -> l | Null | Num _ | Str _ | Obj _ -> raise Bad

let strs o k = List.map (function Str s -> s | Null | Num _ | Arr _ | Obj _ -> raise Bad) (arr o k)

let optional f o k = Option.map (fun _ -> f o k) (field o k)

let decode f line = match parse line with Some v -> ( try Some (f v) with Bad -> None) | None -> None

let load of_line file =
  let ic = open_in file in
  let rec loop acc bad =
    match input_line ic with
    | line ->
        if String.trim line = "" then loop acc bad
        else (
          match of_line line with Some x -> loop (x :: acc) bad | None -> loop acc (bad + 1))
    | exception End_of_file -> (List.rev acc, bad)
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> loop [] 0)
