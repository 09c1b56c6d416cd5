// Fixture: shard_safety — only the leader type (owner of `shards`) may
// touch other shards' state, only the mailbox type (owner of `boxes`)
// may touch the mailbox storage, and mail handling must not fold floats
// through iterators (only the fixed source-rack order is sanctioned).
pub struct ShardedEmulator {
    shards: Vec<RackShard>,
}

pub struct Msg {
    pub bytes: u64,
}

pub struct Mailboxes {
    racks: usize,
    boxes: Vec<Vec<Msg>>,
}

impl Mailboxes {
    pub fn post(&mut self, src: usize, dst: usize, msg: Msg) {
        self.boxes[src * self.racks + dst].push(msg);
    }

    // Owner drain in fixed source order: sanctioned.
    pub fn collect(&mut self, dst: usize, mut deliver: impl FnMut(Msg)) {
        for src in 0..self.racks {
            for m in self.boxes[src * self.racks + dst].drain(..) {
                deliver(m);
            }
        }
    }
}

pub struct RackShard {
    r: usize,
    pub goodput: f64,
}

impl RackShard {
    fn accept(&mut self, _m: Msg) {}

    // Posting and collecting through the API: sanctioned.
    pub fn emit(&mut self, mail: &mut Mailboxes, dst: usize, msg: Msg) {
        mail.post(self.r, dst, msg);
    }

    pub fn begin_window(&mut self, mail: &mut Mailboxes) {
        let mut got = Vec::new();
        mail.collect(self.r, |m| got.push(m));
        for m in got {
            self.accept(m);
        }
    }

    // VIOLATION: a shard reaching around the mailbox into the world.
    pub fn cheat(&mut self, world: &mut ShardedEmulator) {
        world.shards[0].goodput = 1.0;
    }

    // VIOLATION: a shard indexing the mailbox storage directly.
    pub fn peek(&self, mail: &Mailboxes) -> usize {
        mail.boxes[self.r].len()
    }

    // VIOLATION: iterator float fold over collected mail.
    pub fn fold_mail(&self, mail: &[Msg]) -> f64 {
        mail.iter().map(|m| m.bytes as f64).sum::<f64>()
    }
}
