// Fixture: a controller that blocks, selects, spawns and sleeps.

use std::time::Duration;

impl Controller {
    fn wait_for_ack(&mut self, rx: &Receiver<SourceEvent>) {
        let ev = rx.recv();
        let mut sel = Select::new();
        let _ = sel.select_timeout(Duration::from_millis(10));
        self.on_source(ev);
        let _ = rx.recv_timeout(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(1));
        std::thread::scope(|s| {
            s.spawn(|| {});
        });
    }

    fn spawn_worker(&self) -> JoinHandle<()> { std::thread::spawn(|| {}) }
}
