(* One serving machine: [concurrency] server/client pairs wired through
   the kernel's pipes, clients replaying Loadgen schedules, per-request
   latency captured from the syscall tracer. A request's clock starts
   when the client's 4-byte request write returns and stops when the
   client has drained the full response — so the measurement spans
   queueing at the server, service, and both pipe crossings, exactly the
   span a real client times. *)

module H = Workload.Harness
module G = Workload.Guests

type config = {
  defense : Defense.t;
  concurrency : int;  (* server/client pairs on the machine *)
  requests : int;  (* per client *)
  model : Loadgen.model;
  resp_size : int;  (* response bytes per request *)
  ws_pages : int;  (* popularity working set of each server *)
  theta : float;  (* Zipf skew *)
  seed : int;
}

let config ?(defense = Defense.split_standalone) ?(concurrency = 1) ?(requests = 32)
    ?(model = Loadgen.Closed { think = 60_000 }) ?(resp_size = 2048) ?(ws_pages = 8)
    ?(theta = 1.0) ?(seed = 1) () =
  { defense; concurrency; requests; model; resp_size; ws_pages; theta; seed }

type outcome = {
  label : string;
  defense_name : string;
  concurrency : int;
  offered : int;  (* requests scheduled across all clients *)
  completed : int;  (* requests whose response was fully drained *)
  cycles : int;
  throughput : float;  (* completed requests per million cycles *)
  lat : Latency.summary;
  samples : int array;  (* latency reservoir, for cross-rep aggregation *)
  result : H.result;
}

let spec (c : config) =
  let mode = match c.model with Loadgen.Closed _ -> `Closed | Loadgen.Open _ -> `Open in
  (* one image for every server, so the loader verifies and keys it once *)
  let server = G.serve_server ~ws_pages:c.ws_pages ~size:c.resp_size () in
  let guests =
    List.concat
      (List.init c.concurrency (fun i ->
           let schedule =
             Loadgen.schedule ~theta:c.theta ~ws_pages:c.ws_pages ~model:c.model
               ~requests:c.requests ~seed:c.seed ~client:i ()
           in
           [
             H.guest server;
             H.guest (G.serve_client ~mode ~size:c.resp_size ~schedule ());
           ]))
  in
  H.spec
    ~label:
      (Fmt.str "serve-%s-c%d-%s" (Defense.name c.defense) c.concurrency
         (Loadgen.model_name c.model))
    ~defense:c.defense ~seed:c.seed ~share_images:true
    ~wiring:(H.Pipeline { capacity = None })
    guests

(* Per-client request state machine fed by the syscall tracer. *)
type client_state = { mutable started : int; mutable remaining : int }

let run ?(obs = Obs.null) (c : config) =
  let s = spec c in
  let lat = Latency.create ~seed:c.seed () in
  let c_req = Obs.counter obs "serve.requests" in
  let h_lat = Obs.histogram obs "serve.latency_cycles" in
  let tune k =
    let cost = Kernel.Os.cost k in
    let clients : (int, client_state) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (p : Kernel.Proc.t) ->
        if p.name = "serve-client" then
          Hashtbl.replace clients p.pid { started = 0; remaining = 0 })
      (Kernel.Machine.procs (Kernel.Os.machine k));
    Kernel.Os.set_syscall_tracer k
      (Some
         (fun (tr : Kernel.Machine.syscall_trace) ->
           match Hashtbl.find_opt clients tr.sys_pid with
           | None -> ()
           | Some st -> (
             match (tr.sys_number, tr.sys_outcome) with
             | 4, Kernel.Machine.Returned n when n > 0 ->
               (* request released: the clock starts as the write returns *)
               if st.remaining <= 0 then begin
                 st.started <- cost.Hw.Cost.cycles;
                 st.remaining <- c.resp_size
               end
             | 3, Kernel.Machine.Returned n when n > 0 && st.remaining > 0 ->
               st.remaining <- st.remaining - n;
               if st.remaining <= 0 then begin
                 let d = cost.Hw.Cost.cycles - st.started in
                 Latency.record lat d;
                 Obs.Metrics.incr c_req;
                 Obs.Metrics.observe h_lat d;
                 st.remaining <- 0
               end
             | _ -> ())))
  in
  let result, _k = H.run_k ~obs ~tune s in
  let completed = Latency.count lat in
  let samples = Array.sub lat.Latency.reservoir 0 (min completed lat.Latency.capacity) in
  {
    label = s.H.label;
    defense_name = Defense.name c.defense;
    concurrency = c.concurrency;
    offered = c.concurrency * c.requests;
    completed;
    cycles = result.H.cycles;
    throughput =
      (if result.H.cycles = 0 then 0.0
       else float_of_int completed *. 1_000_000.0 /. float_of_int result.H.cycles);
    lat = Latency.summary lat;
    samples;
    result;
  }
