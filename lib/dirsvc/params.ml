type t = {
  net_latency : Simnet.Network.latency;
  disk_write_ms : float;
  disk_read_ms : float;
  intentions_write_ms : float;
  nvram_write_ms : float;
  nvram_capacity : int;
  cpu_read_ms : float;
  cpu_write_ms : float;
  bullet_cpu_ms : float;
  nfs_cpu_read_ms : float;
  nfs_cpu_write_ms : float;
  server_threads : int;
  resilience_override : int option;
  dissemination : Group.Types.dissemination;
  batch_max : int;
  batch_window_ms : float;
  batch_persist_idle_ms : float;
  disk_blocks : int;
  disk_block_size : int;
  admin_slots : int;
  shards : int;
  xshard_timeout_ms : float;
}

let default =
  {
    net_latency = { Simnet.Network.base = 0.7; jitter = 0.2; local = 0.05 };
    disk_write_ms = 40.0;
    disk_read_ms = 15.0;
    intentions_write_ms = 15.0;
    nvram_write_ms = 9.0;
    nvram_capacity = 24 * 1024;
    cpu_read_ms = 3.0;
    cpu_write_ms = 2.0;
    bullet_cpu_ms = 0.4;
    nfs_cpu_read_ms = 4.0;
    nfs_cpu_write_ms = 2.0;
    server_threads = 5;
    resilience_override = None;
    dissemination = Group.Types.Pb;
    batch_max = 1;
    batch_window_ms = 2.0;
    batch_persist_idle_ms = 150.0;
    disk_blocks = 4096;
    disk_block_size = 1024;
    admin_slots = 256;
    shards = 1;
    xshard_timeout_ms = 1500.0;
  }

let with_disk_scale t factor =
  {
    t with
    disk_write_ms = t.disk_write_ms *. factor;
    disk_read_ms = t.disk_read_ms *. factor;
    intentions_write_ms = t.intentions_write_ms *. factor;
  }

let group_config t ~servers =
  {
    Group.Types.default_config with
    resilience =
      (match t.resilience_override with Some r -> r | None -> servers - 1);
    dissemination = t.dissemination;
    batch_max = t.batch_max;
    batch_window = t.batch_window_ms;
  }
