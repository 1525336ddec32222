// Fixture: the controller shapes L009 accepts — sends, non-blocking
// drains, queued spawn requests, mentions in comments and strings
// (rx.recv(), select, sleep(1)), and test code that drives it.

impl Controller {
    fn drain(&mut self, rx: &Receiver<Message>) -> u64 {
        let mut n = 0;
        while let Ok(_msg) = rx.try_recv() {
            n += 1;
        }
        let _ = "thread::spawn(|| {})";
        n
    }

    fn provision(&mut self, slot: usize) {
        let (tx, rx) = bounded(4);
        self.spawns.push((slot, rx));
        let _ = self.ctl_tx.send(SourceCtl::ProvisionDest { dest: slot, tx });
    }

    fn take_spawns(&mut self) -> Vec<Spawn> {
        std::mem::take(&mut self.spawns)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_receive() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
