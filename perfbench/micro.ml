(* Bench-side timings of the service's request-path functions on the
   workload's own request and reply bytes: what the daemon spends per
   cached request, and what a client that parses every reply (as
   [Pdw_service.Client] does) would add. *)

module Protocol = Pdw_service.Protocol
module Plan_cache = Pdw_service.Plan_cache
module Json = Pdw_obs.Json
module Clock = Pdw_obs.Clock

let reps = 10
let max_specs = 32

let time_us f =
  let t0 = Clock.now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Clock.now () -. t0) *. 1e6 /. float_of_int reps

(* [pairs]: specs with the outcome text they plan to. *)
let service_calls pairs =
  let pairs = List.filteri (fun i _ -> i < max_specs) pairs in
  let cache = Plan_cache.create ~capacity:(max 256 (List.length pairs)) () in
  List.iter (fun (spec, outcome) -> Plan_cache.add cache (Protocol.digest spec) outcome) pairs;
  let names =
    [ "json.parse_us"; "protocol.request_of_json_us"; "protocol.digest_us"; "plan_cache.find_us";
      "protocol.reply_to_string_us"; "client.reply_parse_us" ]
  in
  let sums = Array.make (List.length names) 0.0 in
  List.iter
    (fun (spec, outcome) ->
      let request = Inputs.request_bytes spec in
      let parsed = Result.get_ok (Json.parse request) in
      let digest = Protocol.digest spec in
      let reply =
        Protocol.Plan
          { cached = true; coalesced = false; tier = Protocol.Memory; digest; wall_ms = 0.05; outcome }
      in
      let reply_bytes = Protocol.reply_to_string reply in
      let times =
        [
          time_us (fun () -> Json.parse request);
          time_us (fun () -> Protocol.request_of_json parsed);
          time_us (fun () -> Protocol.digest spec);
          time_us (fun () -> Plan_cache.find cache digest);
          time_us (fun () -> Protocol.reply_to_string reply);
          time_us (fun () -> Result.bind (Json.parse reply_bytes) Protocol.reply_of_json);
        ]
      in
      List.iteri (fun i t -> sums.(i) <- sums.(i) +. t) times)
    pairs;
  let n = float_of_int (max 1 (List.length pairs)) in
  List.mapi (fun i name -> (name, sums.(i) /. n)) names
