type t = {
  disk_write_ms : float;
  disk_read_ms : float;
  intentions_write_ms : float;
  nvram_capacity : int;
  resilience_override : int option;
  dissemination : Group.Types.dissemination;
  batch_max : int;
  admin_slots : int;
  shards : int;
}

let default =
  {
    disk_write_ms = 40.0;
    disk_read_ms = 15.0;
    intentions_write_ms = 15.0;
    nvram_capacity = 24 * 1024;
    resilience_override = None;
    dissemination = Group.Types.Pb;
    batch_max = 1;
    admin_slots = 256;
    shards = 1;
  }

let nvram_write_ms = 9.0

let cpu_read_ms = 3.0

let cpu_write_ms = 2.0

let nfs_cpu_read_ms = 4.0

let nfs_cpu_write_ms = 2.0

let server_threads = 5

let batch_persist_idle_ms = 150.0

let disk_blocks = 4096

let disk_block_size = 1024

let xshard_timeout_ms = 1500.0

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
  }
