type entry = {
  trial : int;
  seed : int;
  schedule : string;
  fingerprint : string;
  verdict : string;
  invariants : string list;
  trace_ids : string list;
  transient : int;
  converged_at : float option;
  deadline : float;
  min_schedule : string option;
  min_faults : int option;
  shrink_steps : int option;
  repro_recording : string option;
}

let to_json e =
  let open Json_line in
  let int_opt = opt string_of_int in
  obj
    [
      ("trial", string_of_int e.trial);
      ("seed", string_of_int e.seed);
      ("schedule", quote e.schedule);
      ("fingerprint", quote e.fingerprint);
      ("verdict", quote e.verdict);
      ("invariants", list quote e.invariants);
      ("trace_ids", list quote e.trace_ids);
      ("transient", string_of_int e.transient);
      ("converged_at", opt float e.converged_at);
      ("deadline", float e.deadline);
      ("min_schedule", opt quote e.min_schedule);
      ("min_faults", int_opt e.min_faults);
      ("shrink_steps", int_opt e.shrink_steps);
      ("repro_recording", opt quote e.repro_recording);
    ]

let of_json =
  Json_line.decode (fun o ->
      let open Json_line in
      {
        trial = int o "trial";
        seed = int o "seed";
        schedule = str o "schedule";
        fingerprint = str o "fingerprint";
        verdict = str o "verdict";
        invariants = strs o "invariants";
        trace_ids = strs o "trace_ids";
        transient = int o "transient";
        converged_at = optional num o "converged_at";
        deadline = num o "deadline";
        min_schedule = optional str o "min_schedule";
        min_faults = optional int o "min_faults";
        shrink_steps = optional int o "shrink_steps";
        repro_recording = optional str o "repro_recording";
      })

let append oc e =
  output_string oc (to_json e);
  output_char oc '\n'

let load = Json_line.load of_json
