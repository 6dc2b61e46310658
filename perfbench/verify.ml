(* Reply verification without a JSON tree.  A plan reply is
   [Protocol.reply_to_string]'s envelope with the outcome text spliced
   in last, so the reply is correct exactly when the bytes after
   ["outcome":] up to the closing brace equal a local [Engine.plan] of
   the same spec.  Scanning a few header bytes and one [memcmp]-style
   comparison keeps the client's per-reply cost far below the daemon's,
   so the served workloads measure the daemon. *)

type verdict =
  | Match of { wall_ms : float; cached : bool }
  | Mismatch  (** a plan reply whose outcome bytes differ from the expected ones *)
  | Refused of string  (** an error, shed or timeout reply, or an unreadable frame *)

let plan_prefix = "{\"status\":\"ok\","
let outcome_key = ",\"outcome\":"

let starts_with ~prefix ~at s =
  let n = String.length prefix in
  at + n <= String.length s && String.sub s at n = prefix

(* First index of [pat] in [s] at or after [from]. *)
let find ?(from = 0) s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.unsafe_get s i = String.unsafe_get pat 0 && starts_with ~prefix:pat ~at:i s
    then Some i
    else go (i + 1)
  in
  go from

let number_after s key =
  match find s key with
  | None -> None
  | Some i ->
    let start = i + String.length key in
    let j = ref start in
    while
      !j < String.length s
      && (match s.[!j] with '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true | _ -> false)
    do
      incr j
    done;
    float_of_string_opt (String.sub s start (!j - start))

(* [region_equal s off expected] compares without copying. *)
let region_equal s off expected =
  let m = String.length expected in
  off + m <= String.length s
  &&
  let rec go i = i = m || (String.unsafe_get s (off + i) = String.unsafe_get expected i && go (i + 1)) in
  go 0

let status_of reply =
  match find reply "\"status\":\"" with
  | None -> "unreadable"
  | Some i -> (
    let start = i + 10 in
    match String.index_from_opt reply start '"' with
    | Some j -> String.sub reply start (j - start)
    | None -> "unreadable")

(* [check ~expected reply]: [expected] is the outcome text a local
   [Engine.plan] produced for the request's spec. *)
let check ~expected reply =
  if not (starts_with ~prefix:plan_prefix ~at:0 reply) then Refused (status_of reply)
  else
    (* The header holds booleans, a tier name, a hex digest and a
       number, none of which can contain the key, so its first
       occurrence is the envelope's own. *)
    match find ~from:(String.length plan_prefix) reply outcome_key with
    | None -> Mismatch
    | Some i ->
      let off = i + String.length outcome_key in
      let len = String.length reply in
      if
        off + String.length expected + 1 = len
        && reply.[len - 1] = '}'
        && region_equal reply off expected
      then
        Match
          {
            wall_ms = Option.value (number_after reply "\"wall_ms\":") ~default:nan;
            cached = starts_with ~prefix:"\"cached\":true" ~at:(String.length plan_prefix) reply;
          }
      else Mismatch
