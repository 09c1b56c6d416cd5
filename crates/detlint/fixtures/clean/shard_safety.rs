// Clean counterpart: shards reach each other only through the mailbox
// type's post/collect, and mail is counted with a fixed-order integer
// loop.

pub struct ShardedEmulator {
    shards: Vec<RackShard>,
    mail: Mailboxes,
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
    bytes_in: u64,
}

impl ShardedEmulator {
    pub fn window(&mut self) -> u64 {
        let mut bytes = 0u64;
        for s in &mut self.shards {
            s.begin_window(&mut self.mail);
            bytes += s.bytes_in;
        }
        bytes
    }
}

impl RackShard {
    pub fn emit(&mut self, mail: &mut Mailboxes, dst: usize, msg: Msg) {
        mail.post(self.r, dst, msg);
    }

    fn begin_window(&mut self, mail: &mut Mailboxes) {
        let mut bytes = 0u64;
        mail.collect(self.r, |m| bytes += m.bytes);
        self.bytes_in += bytes;
    }
}
