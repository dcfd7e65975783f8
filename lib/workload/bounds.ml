let read_bound ~servers =
  float_of_int servers *. (1000.0 /. Dirsvc.Params.cpu_read_ms)

let write_bound ~pair_latency_ms = 1000.0 /. pair_latency_ms
