//! Thread-safety guarantees (Rust API guidelines C-SEND-SYNC): the
//! library's value types and engines must be `Send` (movable to worker
//! threads for parallel parameter sweeps), and the immutable ones `Sync`.

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn engine_types_are_send() {
    assert_send::<sim_engine::EventQueue<u64>>();
    assert_send::<sim_engine::DetRng>();
    assert_send_sync::<sim_engine::SimTime>();
    assert_send_sync::<sim_engine::Bandwidth>();
    assert_send_sync::<sim_engine::Histogram>();
}

#[test]
fn telemetry_types_are_send() {
    assert_send_sync::<telemetry::TraceEvent>();
    assert_send_sync::<telemetry::Sample>();
    assert_send::<telemetry::RingCollector>();
    assert_send_sync::<telemetry::NullCollector>();
}

#[test]
fn protocol_types_are_send_sync() {
    assert_send_sync::<protocol::FramingModel>();
    assert_send_sync::<protocol::TlpHeader>();
    assert_send_sync::<protocol::NvlinkModel>();
    assert_send_sync::<protocol::CreditAccount>();
    assert_send_sync::<protocol::Dllp>();
    assert_send_sync::<protocol::ProtocolError>();
}

#[test]
fn gpu_model_types_are_send() {
    assert_send_sync::<gpu_model::GpuConfig>();
    assert_send_sync::<gpu_model::AddressMap>();
    assert_send_sync::<gpu_model::Gpu>();
    assert_send::<gpu_model::KernelTrace>();
    assert_send::<gpu_model::KernelRun>();
    assert_send::<gpu_model::MemoryImage>();
}

#[test]
fn finepack_types_are_send() {
    assert_send_sync::<finepack::FinePackConfig>();
    assert_send_sync::<finepack::SubheaderFormat>();
    assert_send::<finepack::RemoteWriteQueue>();
    assert_send::<finepack::FinePackEgress>();
    assert_send::<finepack::FinePackPacket>();
    assert_send::<finepack::Depacketizer>();
    assert_send_sync::<finepack::FinePackError>();
}

#[test]
fn system_types_are_send() {
    assert_send_sync::<system::SystemConfig>();
    assert_send_sync::<system::Topology>();
    assert_send::<system::Runner>();
    assert_send::<system::RunReport>();
    assert_send::<system::PreparedWorkload>();
}

#[test]
fn workloads_are_send_for_parallel_sweeps() {
    assert_send_sync::<workloads::RunSpec>();
    assert_send_sync::<workloads::Jacobi>();
    assert_send_sync::<workloads::Synthetic>();
    assert_send::<workloads::PagerankGraph>();
    // Boxed suite entries can be fanned out across threads.
    fn assert_all_send(suite: Vec<Box<dyn workloads::Workload>>) -> usize {
        std::thread::scope(|s| {
            suite
                .into_iter()
                .map(|app| {
                    s.spawn(move || {
                        app.trace(&workloads::RunSpec::tiny(), 0, gpu_model::GpuId::new(0))
                            .store_count()
                    })
                })
                .map(|h| h.join().expect("worker"))
                .sum()
        })
    }
    assert!(assert_all_send(workloads::suite()) > 0);
}
