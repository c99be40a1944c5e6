//! Posting closures: `SimHandle::post_at` takes a key on a shared
//! [`Land`], not a closure, so a test that posts closures keeps them here,
//! each under the key its post carries, until the post fires.

use gbcr_des::{Land, SimHandle, Time};
use std::cell::RefCell;
use std::rc::Rc;

type Callback = Box<dyn FnOnce(&SimHandle)>;

/// Boxed closures by key.
#[derive(Default)]
pub struct Posts(RefCell<Vec<Option<Callback>>>);

impl Posts {
    /// Post `f` at `at` under fingerprint tag `tag`.
    pub fn at(
        self: &Rc<Self>,
        h: &SimHandle,
        at: Time,
        tag: u64,
        f: impl FnOnce(&SimHandle) + 'static,
    ) {
        let key = {
            let mut fs = self.0.borrow_mut();
            fs.push(Some(Box::new(f)));
            u32::try_from(fs.len() - 1).expect("fewer than 2^32 posts")
        };
        h.post_at(at, tag, key, self.clone());
    }
}

impl Land for Posts {
    fn land(self: Rc<Self>, h: &SimHandle, key: u32) {
        let f = self.0.borrow_mut()[key as usize].take().expect("a post lands once");
        f(h);
    }
}
